#include "http/http.hh"

#include "util/strings.hh"

namespace rhythm::http {

std::string_view
methodName(Method method)
{
    switch (method) {
      case Method::Get:
        return "GET";
      case Method::Post:
        return "POST";
    }
    return "GET";
}

std::string_view
Request::param(std::string_view key) const
{
    for (const auto &[k, v] : params) {
        if (k == key)
            return v;
    }
    return {};
}

bool
Request::hasParam(std::string_view key) const
{
    for (const auto &[k, v] : params) {
        if (k == key)
            return true;
    }
    return false;
}

Framing
checkFraming(std::string_view raw)
{
    Framing framing;
    if (!startsWith(raw, "HTTP/1.1 200 OK\r\n")) {
        framing.error = "bad status line";
        return framing;
    }
    const size_t header_end = raw.find("\r\n\r\n");
    if (header_end == std::string_view::npos) {
        framing.error = "no header terminator";
        return framing;
    }
    const size_t body_size = raw.size() - header_end - 4;
    const size_t cl_pos = raw.find("Content-Length: ");
    if (cl_pos == std::string_view::npos || cl_pos > header_end) {
        framing.error = "missing Content-Length";
        return framing;
    }
    size_t p = cl_pos + 16;
    uint64_t declared = 0;
    bool digits = false;
    while (p < raw.size() && raw[p] >= '0' && raw[p] <= '9') {
        declared = declared * 10 + static_cast<uint64_t>(raw[p] - '0');
        digits = true;
        ++p;
    }
    if (!digits) {
        framing.error = "unparsable Content-Length";
        return framing;
    }
    while (p < raw.size() && raw[p] == ' ')
        ++p;
    if (p + 1 >= raw.size() || raw[p] != '\r' || raw[p + 1] != '\n') {
        framing.error = "Content-Length not whitespace-terminated";
        return framing;
    }
    if (declared != body_size) {
        framing.error = "Content-Length mismatch: declared " +
                        std::to_string(declared) + " actual " +
                        std::to_string(body_size);
        return framing;
    }
    framing.header = raw.substr(0, header_end);
    framing.body = raw.substr(header_end + 4);
    return framing;
}

std::string
buildRequest(Method method,
             std::string_view path,
             const std::vector<std::pair<std::string, std::string>> &params,
             std::string_view cookie)
{
    std::string form;
    for (const auto &[k, v] : params) {
        if (!form.empty())
            form.push_back('&');
        form.append(k);
        form.push_back('=');
        form.append(v);
    }

    std::string out;
    out.append(methodName(method));
    out.push_back(' ');
    out.append(path);
    if (method == Method::Get && !form.empty()) {
        out.push_back('?');
        out.append(form);
    }
    out.append(" HTTP/1.1\r\nHost: bank.example.com\r\n");
    if (!cookie.empty()) {
        out.append("Cookie: ");
        out.append(cookie);
        out.append("\r\n");
    }
    if (method == Method::Post) {
        out.append("Content-Type: application/x-www-form-urlencoded\r\n");
        out.append("Content-Length: ");
        out.append(std::to_string(form.size()));
        out.append("\r\n\r\n");
        out.append(form);
    } else {
        out.append("\r\n");
    }
    return out;
}

} // namespace rhythm::http
