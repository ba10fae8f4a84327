/**
 * @file
 * Minimal command-line flag parsing for the tools and harnesses.
 *
 * Supports --key=value and --key value forms plus boolean switches
 * (--flag / --no-flag). Unknown flags are reported as errors so typos
 * in experiment configurations do not pass silently.
 */

#ifndef RHYTHM_UTIL_FLAGS_HH
#define RHYTHM_UTIL_FLAGS_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace rhythm {

/** Parsed command line. */
class Flags
{
  public:
    /**
     * Parses argv.
     * @return false (with an error message in error()) on malformed
     *         input; flags are still usable for whatever parsed.
     */
    bool parse(int argc, const char *const *argv);

    /** True if the flag was given. */
    bool has(std::string_view name) const;

    /** String value (or @p fallback when absent). */
    std::string getString(std::string_view name,
                          std::string_view fallback = "") const;

    /**
     * Unsigned integer value (or @p fallback when absent/malformed;
     * requireU64() turns malformed into an error).
     */
    uint64_t getU64(std::string_view name, uint64_t fallback) const;

    /**
     * Double value (or @p fallback when absent/malformed;
     * requireDouble() turns malformed into an error).
     */
    double getDouble(std::string_view name, double fallback) const;

    /**
     * Boolean value: --name or --name=true|1 give true, --no-name or
     * --name=false|0 give false; @p fallback when absent.
     */
    bool getBool(std::string_view name, bool fallback) const;

    /** Positional (non-flag) arguments, in order. */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    /** Names of all flags given (for unknown-flag validation). */
    std::vector<std::string> names() const;

    /**
     * Verifies every given flag is in @p known.
     * @return false (with error()) when an unknown flag was given.
     */
    bool allowOnly(const std::vector<std::string> &known);

    /**
     * Verifies every given flag among @p names holds an unsigned
     * integer, as getU64() parses it.
     * @return false (with error()) on the first value that does not.
     */
    bool requireU64(const std::vector<std::string> &names);

    /** As requireU64(), for getDouble()'s decimal values. */
    bool requireDouble(const std::vector<std::string> &names);

    /** Parse/validation error message ("" when fine). */
    const std::string &error() const { return error_; }

  private:
    std::map<std::string, std::string, std::less<>> values_;
    std::vector<std::string> positional_;
    std::string error_;
};

} // namespace rhythm

#endif // RHYTHM_UTIL_FLAGS_HH
