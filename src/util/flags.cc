#include "util/flags.hh"

#include <cstdlib>

#include "util/strings.hh"

namespace rhythm {
namespace {

/** Parses all of @p text as a decimal number (strtod syntax). */
bool
parseDouble(const std::string &text, double &out)
{
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0')
        return false;
    out = value;
    return true;
}

} // namespace

bool
Flags::parse(int argc, const char *const *argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (!startsWith(arg, "--")) {
            positional_.emplace_back(arg);
            continue;
        }
        std::string_view body = arg.substr(2);
        if (body.empty()) {
            error_ = "bare '--' is not a flag";
            return false;
        }
        const size_t eq = body.find('=');
        if (eq != std::string_view::npos) {
            values_[std::string(body.substr(0, eq))] =
                std::string(body.substr(eq + 1));
            continue;
        }
        if (startsWith(body, "no-")) {
            values_[std::string(body.substr(3))] = "false";
            continue;
        }
        // --key value when the next token is not a flag; else a switch.
        if (i + 1 < argc && !startsWith(argv[i + 1], "--")) {
            values_[std::string(body)] = argv[++i];
        } else {
            values_[std::string(body)] = "true";
        }
    }
    return true;
}

bool
Flags::has(std::string_view name) const
{
    return values_.find(name) != values_.end();
}

std::string
Flags::getString(std::string_view name, std::string_view fallback) const
{
    auto it = values_.find(name);
    return it == values_.end() ? std::string(fallback) : it->second;
}

uint64_t
Flags::getU64(std::string_view name, uint64_t fallback) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return fallback;
    uint64_t value = 0;
    return parseU64(it->second, value) ? value : fallback;
}

double
Flags::getDouble(std::string_view name, double fallback) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return fallback;
    double value = 0.0;
    return parseDouble(it->second, value) ? value : fallback;
}

bool
Flags::getBool(std::string_view name, bool fallback) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        return fallback;
    const std::string &v = it->second;
    if (v == "true" || v == "1" || v == "yes")
        return true;
    if (v == "false" || v == "0" || v == "no")
        return false;
    return fallback;
}

std::vector<std::string>
Flags::names() const
{
    std::vector<std::string> out;
    out.reserve(values_.size());
    for (const auto &[name, value] : values_)
        out.push_back(name);
    return out;
}

bool
Flags::allowOnly(const std::vector<std::string> &known)
{
    for (const auto &[name, value] : values_) {
        bool ok = false;
        for (const std::string &k : known)
            ok |= k == name;
        if (!ok) {
            error_ = "unknown flag: --" + name;
            return false;
        }
    }
    return true;
}

bool
Flags::requireU64(const std::vector<std::string> &names)
{
    uint64_t value = 0;
    for (const std::string &name : names) {
        auto it = values_.find(name);
        if (it != values_.end() && !parseU64(it->second, value)) {
            error_ = "--" + name + " must be an unsigned integer, got: " +
                     it->second;
            return false;
        }
    }
    return true;
}

bool
Flags::requireDouble(const std::vector<std::string> &names)
{
    double value = 0.0;
    for (const std::string &name : names) {
        auto it = values_.find(name);
        if (it != values_.end() && !parseDouble(it->second, value)) {
            error_ = "--" + name + " must be a number, got: " + it->second;
            return false;
        }
    }
    return true;
}

} // namespace rhythm
