/**
 * @file
 * ASCII table and CSV emission for benchmark harnesses.
 *
 * Every bench binary regenerating one of the paper's tables/figures prints
 * its rows through TableWriter so output is uniform and diffable.
 */

#ifndef RHYTHM_UTIL_TABLE_HH
#define RHYTHM_UTIL_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace rhythm {

/**
 * Collects rows of string cells and renders them either as an aligned
 * ASCII table or as CSV.
 */
class TableWriter
{
  public:
    /** Creates a table with the given column headers. */
    explicit TableWriter(std::vector<std::string> headers);

    /** Appends one row; must have exactly as many cells as headers. */
    void addRow(std::vector<std::string> cells);

    /** Renders an aligned, boxed ASCII table. */
    void printAscii(std::ostream &os) const;

    /** Renders RFC-4180-ish CSV (cells containing commas are quoted). */
    void printCsv(std::ostream &os) const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace rhythm

#endif // RHYTHM_UTIL_TABLE_HH
