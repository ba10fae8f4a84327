#include "util/flags.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "util/logging.hh"
#include "util/strings.hh"

namespace rhythm {
namespace {

/** Parses all of @p text as a finite decimal number (strtod syntax). */
bool
parseNumber(std::string_view text, double &out)
{
    const std::string s(text);
    char *end = nullptr;
    const double value = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0' || !std::isfinite(value))
        return false;
    out = value;
    return true;
}

bool
parseSwitch(std::string_view text, bool &out)
{
    if (text == "on" || text == "true" || text == "1" || text == "yes")
        out = true;
    else if (text == "off" || text == "false" || text == "0" || text == "no")
        out = false;
    else
        return false;
    return true;
}

/** What a value of @p f must be, when @p value is not one ("" if it is). */
std::string
expectation(const FlagSpec &f, std::string_view value)
{
    bool on = false;
    if (f.kind == FlagKind::Switch)
        return parseSwitch(value, on) ? "" : "on or off";
    if (f.kind == FlagKind::Choice) {
        for (std::string_view c : split(f.values, '|'))
            if (c == value)
                return "";
        return "one of " + std::string(f.values);
    }
    uint64_t n = 0;
    double x = 0.0; // Text flags have no range, so 0 passes.
    if (f.kind == FlagKind::Count) {
        if (!parseU64(value, n))
            return "an unsigned integer";
        x = static_cast<double>(n);
    } else if (f.kind == FlagKind::Number && !parseNumber(value, x)) {
        return "a number";
    }
    const FlagRange &r = f.range;
    if (x >= r.min && !(r.minOpen && x == r.min) && x <= r.max)
        return "";
    std::ostringstream os;
    os.precision(15); // whole-number bounds print in full
    if (r.max != std::numeric_limits<double>::infinity())
        os << (r.minOpen ? "in (" : "in [") << r.min << ", " << r.max << "]";
    else
        os << (r.minOpen ? "> " : ">= ") << r.min;
    return os.str();
}

/** The entry of @p table that declares @p name, or null. */
const FlagSpec *
declared(const FlagTable &table, std::string_view name)
{
    for (const FlagSpec &f : table.flags) {
        const size_t open = f.name.find('<');
        if (open == std::string_view::npos
                ? name == f.name
                : name.size() > open &&
                      name.substr(0, open) == f.name.substr(0, open))
            return &f;
    }
    return nullptr;
}

/** The "=N" / "=X" / "[=on|off]" / "=a|b" part of a help line. */
std::string
placeholder(const FlagSpec &f)
{
    if (f.kind == FlagKind::Count)
        return "=N";
    if (f.kind == FlagKind::Number)
        return "=X";
    if (f.kind == FlagKind::Switch)
        return "[=on|off]";
    return std::string("=").append(f.values);
}

} // namespace

bool
Flags::parse(int argc, const char *const *argv)
{
    const auto set = [this](std::string_view key, std::string value) {
        for (auto &[k, v] : values_) {
            if (k == key) {
                v = std::move(value);
                return;
            }
        }
        values_.emplace_back(std::string(key), std::move(value));
    };
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (!startsWith(arg, "--")) {
            error_ = "unexpected argument: " + std::string(arg);
            return false;
        }
        std::string_view body = arg.substr(2);
        if (body.empty()) {
            error_ = "bare '--' is not a flag";
            return false;
        }
        const size_t eq = body.find('=');
        if (eq != std::string_view::npos) {
            set(body.substr(0, eq), std::string(body.substr(eq + 1)));
        } else if (startsWith(body, "no-")) {
            set(body.substr(3), "false");
        } else if (i + 1 < argc && !startsWith(argv[i + 1], "--")) {
            // --key value when the next token is not a flag.
            set(body, argv[++i]);
        } else {
            set(body, "true");
        }
    }
    return true;
}

const FlagSpec *
Flags::spec(std::string_view name) const
{
    for (const FlagTable &table : tables_)
        if (const FlagSpec *f = declared(table, name))
            return f;
    return nullptr;
}

bool
Flags::check(std::span<const FlagTable> tables)
{
    tables_.assign(tables.begin(), tables.end());
    for (const auto &[name, value] : values_) {
        const FlagSpec *f = spec(name);
        if (!f) {
            error_ = "unknown flag: --" + name;
            return false;
        }
        const std::string expected = expectation(*f, value);
        if (!expected.empty()) {
            error_ = "--" + name + " must be " + expected + ", got: " + value;
            return false;
        }
        if (!f->needs.empty() && number(name) > 0 && !on(f->needs)) {
            error_ = "--" + name + " needs --" + std::string(f->needs);
            return false;
        }
    }
    return true;
}

const std::string *
Flags::find(std::string_view name) const
{
    for (const auto &[k, v] : values_)
        if (k == name)
            return &v;
    return nullptr;
}

bool
Flags::has(std::string_view name) const
{
    return find(name) != nullptr;
}

std::vector<std::string>
Flags::given(const FlagTable &table) const
{
    std::vector<std::string> out;
    for (const auto &[name, value] : values_)
        if (declared(table, name))
            out.push_back(name);
    return out;
}

std::string_view
Flags::raw(std::string_view name) const
{
    if (const std::string *value = find(name))
        return *value;
    const FlagSpec *f = spec(name);
    RHYTHM_ASSERT(f, "flag not declared: --", name);
    return f->def;
}

uint64_t
Flags::count(std::string_view name) const
{
    uint64_t value = 0;
    parseU64(raw(name), value);
    return value;
}

double
Flags::number(std::string_view name) const
{
    double value = 0.0;
    parseNumber(raw(name), value);
    return value;
}

bool
Flags::on(std::string_view name) const
{
    bool value = false;
    parseSwitch(raw(name), value);
    return value;
}

std::string
Flags::text(std::string_view name) const
{
    return std::string(raw(name));
}

void
Flags::usage(std::ostream &out, std::string_view program,
             std::span<const FlagTable> tables)
{
    // Help text starts in column kIndent and wraps at kWidth.
    constexpr size_t kIndent = 30;
    constexpr size_t kWidth = 79;
    out << "usage: " << program << " [flags]\n";
    for (const FlagTable &table : tables) {
        out << "\n" << table.title << ":\n";
        for (const FlagSpec &f : table.flags) {
            std::string line = "  --" + std::string(f.name) + placeholder(f);
            std::string help(f.help);
            if (!f.needs.empty())
                help += ", with --" + std::string(f.needs);
            if (!f.def.empty())
                help += " (" + std::string(f.def) + ")";
            bool first = true;
            for (std::string_view word : split(help, ' ')) {
                if (first) {
                    line.resize(std::max(line.size() + 2, kIndent), ' ');
                } else if (line.size() + 1 + word.size() > kWidth) {
                    out << line << "\n";
                    line.assign(kIndent, ' ');
                } else {
                    line += ' ';
                }
                line += word;
                first = false;
            }
            out << line << "\n";
        }
    }
}

} // namespace rhythm
