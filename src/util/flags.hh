/**
 * @file
 * Command-line flags for the tools and harnesses.
 *
 * A program declares every flag it takes once, in tables of FlagSpec
 * entries: name, value kind, default and one help line. Flags tokenizes
 * argv (--key=value, --key value, --flag, --no-flag), checks every given
 * flag against the tables and reads typed values back; usage() prints
 * the help text from the same tables. Unknown flags, stray arguments,
 * values that do not parse as their kind and numbers out of range are
 * errors, so a typo in an experiment configuration never passes
 * silently.
 */

#ifndef RHYTHM_UTIL_FLAGS_HH
#define RHYTHM_UTIL_FLAGS_HH

#include <cstdint>
#include <limits>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace rhythm {

/** What a flag's value is. */
enum class FlagKind
{
    Count,  //!< unsigned integer (the help shows =N)
    Number, //!< finite decimal number (=X)
    /** On/off: --x, --no-x, =on|off, =true|false, =1|0, =yes|no. */
    Switch,
    Choice, //!< one of FlagSpec::values, '|'-separated
    Text,   //!< free text; FlagSpec::values names it in the help
};

/** Inclusive range of a Count or Number (min excluded when minOpen). */
struct FlagRange
{
    double min = -std::numeric_limits<double>::infinity();
    double max = std::numeric_limits<double>::infinity();
    bool minOpen = false;
};

inline constexpr FlagRange kNonNegative{0};
inline constexpr FlagRange kPositive{
    0, std::numeric_limits<double>::infinity(), true};
inline constexpr FlagRange kAtLeastOne{1};
inline constexpr FlagRange kProbability{0, 1};

// The largest values of the fields counts are read into: a Count flag
// narrowed to one declares its maximum, so a larger value is refused
// instead of wrapping.
inline constexpr double kMaxU32 = std::numeric_limits<uint32_t>::max();
inline constexpr double kMaxI32 = std::numeric_limits<int32_t>::max();

/**
 * One declared flag. A name ending in "<...>" declares an open family:
 * "deadline-ms-<type>" accepts --deadline-ms-transfer=3.
 */
struct FlagSpec
{
    std::string_view name;
    FlagKind kind;
    std::string_view def; //!< Default as text ("" = none).
    std::string_view help;
    FlagRange range = {};
    std::string_view values = {}; //!< Choice: "a|b"; Text: "PATH".
    /** A switch that must be on when this Count or Number is above 0
     *  ("" = none). */
    std::string_view needs = {};
};

/** A titled group of flags: one section of the help text. */
struct FlagTable
{
    std::string_view title;
    std::span<const FlagSpec> flags;
};

/** Parsed and checked command line. */
class Flags
{
  public:
    /**
     * Tokenizes argv. A flag given twice keeps its last value.
     * @return false (with error()) on a bare "--" or a positional
     *         argument.
     */
    bool parse(int argc, const char *const *argv);

    /**
     * Declares the program's flags and checks every given one.
     * @return false (with error()) on an unknown flag, a value that
     *         does not parse as its kind, a number out of range or a
     *         number above 0 whose FlagSpec::needs switch is off.
     */
    bool check(std::span<const FlagTable> tables);

    /** True if the flag was given. */
    bool has(std::string_view name) const;

    /** The flags of @p table that were given, in command-line order. */
    std::vector<std::string> given(const FlagTable &table) const;

    // Typed value of a declared flag: the given value, else its
    // default (0, off or "" when the default is "").
    uint64_t count(std::string_view name) const;
    double number(std::string_view name) const;
    bool on(std::string_view name) const;
    std::string text(std::string_view name) const;

    /** Prints the help text of @p tables. */
    static void usage(std::ostream &out, std::string_view program,
                      std::span<const FlagTable> tables);

    /** Parse/check error message ("" when fine). */
    const std::string &error() const { return error_; }

  private:
    const std::string *find(std::string_view name) const;
    const FlagSpec *spec(std::string_view name) const;
    /** The given value of @p name, else its declared default. */
    std::string_view raw(std::string_view name) const;

    std::vector<std::pair<std::string, std::string>> values_;
    std::vector<FlagTable> tables_;
    std::string error_;
};

} // namespace rhythm

#endif // RHYTHM_UTIL_FLAGS_HH
