/**
 * @file
 * Line-tracking mini JSON reader for the HAL-W010 schema pass.
 * Handles the subset the repo's committed JSON uses — objects,
 * arrays, strings, and skipped-over scalars — and records the line
 * of every value so diagnostics can point into bench_schema.json.
 * Not a general parser:
 * no \uXXXX decoding, duplicate keys kept as-is.
 */

#ifndef HALSIM_TOOLS_HALINT_JSON_MINI_HH
#define HALSIM_TOOLS_HALINT_JSON_MINI_HH

#include <cctype>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace halint {

struct JsonValue
{
    enum class Kind { Obj, Arr, Str, Other } kind = Kind::Other;
    int line = 1;
    std::string str;
    std::vector<std::pair<std::string, JsonValue>> obj;
    std::vector<JsonValue> arr;

    const JsonValue *
    get(const std::string &key) const
    {
        for (const auto &[k, v] : obj)
            if (k == key)
                return &v;
        return nullptr;
    }
};

struct JsonParser
{
    std::string_view s;
    std::size_t i = 0;
    int line = 1;
    bool ok = true;

    void
    ws()
    {
        while (i < s.size() &&
               std::isspace(static_cast<unsigned char>(s[i]))) {
            if (s[i] == '\n')
                ++line;
            ++i;
        }
    }

    bool
    lit(char c)
    {
        ws();
        if (i < s.size() && s[i] == c) {
            ++i;
            return true;
        }
        return false;
    }

    std::string
    string()
    {
        std::string out;
        if (!lit('"')) {
            ok = false;
            return out;
        }
        while (i < s.size() && s[i] != '"') {
            if (s[i] == '\\' && i + 1 < s.size())
                ++i; // keep the escaped char, drop the backslash
            if (s[i] == '\n')
                ++line;
            out += s[i++];
        }
        if (i < s.size())
            ++i;
        else
            ok = false;
        return out;
    }

    JsonValue
    value()
    {
        JsonValue v;
        ws();
        v.line = line;
        if (i >= s.size()) {
            ok = false;
            return v;
        }
        const char c = s[i];
        if (c == '{') {
            ++i;
            v.kind = JsonValue::Kind::Obj;
            ws();
            if (lit('}'))
                return v;
            for (;;) {
                ws();
                const int keyLine = line;
                std::string key = string();
                if (!ok || !lit(':')) {
                    ok = false;
                    return v;
                }
                JsonValue child = value();
                if (child.kind == JsonValue::Kind::Other)
                    child.line = keyLine;
                v.obj.emplace_back(std::move(key), std::move(child));
                if (lit(','))
                    continue;
                if (!lit('}'))
                    ok = false;
                return v;
            }
        }
        if (c == '[') {
            ++i;
            v.kind = JsonValue::Kind::Arr;
            ws();
            if (lit(']'))
                return v;
            for (;;) {
                v.arr.push_back(value());
                if (!ok)
                    return v;
                if (lit(','))
                    continue;
                if (!lit(']'))
                    ok = false;
                return v;
            }
        }
        if (c == '"') {
            v.kind = JsonValue::Kind::Str;
            v.str = string();
            return v;
        }
        // number / true / false / null: record the raw token text.
        const std::size_t b = i;
        while (i < s.size() &&
               (std::isalnum(static_cast<unsigned char>(s[i])) ||
                s[i] == '-' || s[i] == '+' || s[i] == '.'))
            ++i;
        if (i == b) { // punctuation that fits no production
            ok = false;
            return v;
        }
        v.str = std::string(s.substr(b, i - b));
        return v;
    }
};

/** JSON string escaping for the emitters. */
inline std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace halint

#endif // HALSIM_TOOLS_HALINT_JSON_MINI_HH
