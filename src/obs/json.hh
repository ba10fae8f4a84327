/**
 * @file
 * Minimal streaming JSON writer.
 *
 * Shared by the Chrome trace exporter and the benchmark JSON reporter,
 * so every machine-read artifact this repo produces goes through one
 * escaping/formatting implementation.
 */

#ifndef RHYTHM_OBS_JSON_HH
#define RHYTHM_OBS_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace rhythm::obs {

/** Escapes a string for inclusion in a JSON string literal. */
std::string jsonEscape(std::string_view s);

/**
 * Appends the escaped form of @p s to @p out without allocating a
 * temporary. Exporters on hot emission paths (trace events) reuse one
 * scratch string across calls.
 */
void jsonEscapeTo(std::string_view s, std::string &out);

/**
 * Formats a double as a JSON number. Uses up to 12 significant digits
 * (ample for gate comparisons while keeping files readable); non-finite
 * values, which JSON cannot represent, become null.
 */
std::string jsonNumber(double v);

/**
 * A streaming JSON writer with automatic comma/indent management.
 *
 * Usage:
 *     JsonWriter w(out);
 *     w.beginObject();
 *     w.key("bench"); w.value("fig9");
 *     w.key("metrics"); w.beginObject(); ... w.endObject();
 *     w.endObject();
 *
 * The writer asserts nothing; malformed call sequences produce
 * malformed JSON, and the unit tests validate well-formedness of every
 * exporter built on top of it.
 */
class JsonWriter
{
  public:
    /**
     * @param out Destination stream.
     * @param indent Spaces per nesting level (0 = compact single line).
     */
    explicit JsonWriter(std::ostream &out, int indent = 2);

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Writes an object key (must be inside an object). */
    void key(std::string_view k);

    void value(std::string_view v);
    void value(const char *v);
    void value(double v);
    void value(uint64_t v);
    void value(int64_t v);
    void value(int v);
    void value(bool v);
    /** Writes a null value. */
    void null();
    /** Writes pre-rendered JSON verbatim (caller guarantees validity). */
    void raw(std::string_view json);

  private:
    void separate();
    void newline();

    struct Level
    {
        bool isObject = false;
        bool empty = true;
        bool expectValue = false; //!< A key was just written.
    };

    std::ostream &out_;
    int indent_;
    std::vector<Level> stack_;
    std::string scratch_; //!< Reused escape/indent buffer (hot paths).
};

} // namespace rhythm::obs

#endif // RHYTHM_OBS_JSON_HH
