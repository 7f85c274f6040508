#include "common/json.hh"

#include <charconv>
#include <cstdio>
#include <stdexcept>
#include <vector>

namespace ctcp::json {

namespace {

constexpr std::uint32_t kindMask = 0x7;
constexpr std::uint32_t escapedBit = 0x8;
constexpr unsigned extentShift = 4;
/** Extents are 28 bits, and no extent exceeds the text's length. */
constexpr std::size_t maxTextBytes = (std::size_t{1} << 28) - 1;

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

void
appendUtf8(std::string &out, std::uint32_t code)
{
    // Continuation bytes after the lead byte, and the lead's marker.
    const int tail = code < 0x80 ? 0 : code < 0x800 ? 1 : 2;
    static constexpr unsigned char lead[] = {0x00, 0xc0, 0xe0};
    out += static_cast<char>(lead[tail] | code >> 6 * tail);
    for (int i = tail - 1; i >= 0; --i)
        out += static_cast<char>(0x80 | (code >> 6 * i & 0x3f));
}

} // namespace

/** One pass over a document's text that fills its node table. */
class Parser
{
  public:
    explicit Parser(Document &doc) : doc_(doc), text_(doc.text_) {}

    void
    run()
    {
        if (text_.size() > maxTextBytes)
            fail("a document of " + std::to_string(text_.size()) +
                 " bytes is over the reader's 256 MiB limit");
        // Open containers, innermost last. A value is due at the start
        // and after '[', ',' in an array, and ':'.
        std::vector<std::uint32_t> open;
        bool valueDue = true;
        for (;;) {
            if (valueDue) {
                valueDue = value(open);
                continue;
            }
            skipSpace();
            if (open.empty()) {
                if (pos_ != text_.size())
                    fail("trailing data after the document");
                return;
            }
            const bool object = doc_.kindAt(open.back()) == Kind::Object;
            const char c = next();
            if (c == ',') {
                if (object)
                    key();
                valueDue = true;
            } else if (c == (object ? '}' : ']')) {
                close(open);
            } else {
                --pos_;
                fail(object ? "expected ',' or '}'" : "expected ',' or ']'");
            }
        }
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw std::runtime_error("JSON parse error at byte " +
                                 std::to_string(pos_) + ": " + what);
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    /** The next byte, consumed; fails at the end of the text. */
    char
    next()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_++];
    }

    bool
    at(char c) const
    {
        return pos_ < text_.size() && text_[pos_] == c;
    }

    void
    push(Kind kind, std::size_t begin, std::size_t extent,
         bool escaped = false)
    {
        doc_.nodes_.push_back(
            {static_cast<std::uint32_t>(begin),
             static_cast<std::uint32_t>(kind) |
                 (escaped ? escapedBit : 0) |
                 static_cast<std::uint32_t>(extent) << extentShift});
    }

    void
    close(std::vector<std::uint32_t> &open)
    {
        const std::size_t below = doc_.nodes_.size() - open.back() - 1;
        doc_.nodes_[open.back()].packed |=
            static_cast<std::uint32_t>(below) << extentShift;
        open.pop_back();
    }

    /**
     * Parse the value due at pos_. A container is left open unless it
     * is empty. @return whether a value is due next: the first item of
     * an opened array, or the first member value of an opened object.
     */
    bool
    value(std::vector<std::uint32_t> &open)
    {
        skipSpace();
        const std::size_t start = pos_;
        const char c = next();
        if (c == '{' || c == '[') {
            open.push_back(static_cast<std::uint32_t>(doc_.nodes_.size()));
            push(c == '{' ? Kind::Object : Kind::Array, start, 0);
            skipSpace();
            if (at(c == '{' ? '}' : ']')) {
                ++pos_;
                close(open);
                return false;
            }
            if (c == '{')
                key();
            return true;
        }
        if (c == '"')
            string();
        else if (c == '-' || isDigit(c))
            number(start);
        else if (!word(start, "true", Kind::Bool) &&
                 !word(start, "false", Kind::Bool) &&
                 !word(start, "null", Kind::Null)) {
            pos_ = start;
            fail(std::string("unexpected character '") + c + "'");
        }
        return false;
    }

    bool
    word(std::size_t start, std::string_view w, Kind kind)
    {
        if (text_.compare(start, w.size(), w) != 0)
            return false;
        push(kind, start, w.size());
        pos_ = start + w.size();
        return true;
    }

    /** A member key and its ':'. */
    void
    key()
    {
        skipSpace();
        if (!at('"'))
            fail("expected a string key");
        ++pos_;
        string();
        skipSpace();
        if (!at(':'))
            fail("expected ':'");
        ++pos_;
    }

    /**
     * The rest of a string whose opening quote was just consumed. Its
     * bytes are copied to the side buffer only from its first escape.
     */
    void
    string()
    {
        const std::size_t begin = pos_;
        std::string &out = doc_.decoded_;
        std::size_t decoded = std::string::npos; // its offset in out
        for (;;) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_];
            if (static_cast<unsigned char>(c) < 0x20)
                fail("raw control character in a string");
            ++pos_;
            if (c == '"')
                break;
            if (c != '\\') {
                if (decoded != std::string::npos)
                    out += c;
                continue;
            }
            if (decoded == std::string::npos) {
                decoded = out.size();
                out.append(text_, begin, pos_ - 1 - begin);
            }
            switch (next()) {
              case '"':  out += '"'; break;
              case '\\': out += '\\'; break;
              case '/':  out += '/'; break;
              case 'b':  out += '\b'; break;
              case 'f':  out += '\f'; break;
              case 'n':  out += '\n'; break;
              case 'r':  out += '\r'; break;
              case 't':  out += '\t'; break;
              case 'u':  appendUtf8(out, hex4()); break;
              default:
                --pos_;
                fail("invalid escape");
            }
        }
        if (decoded == std::string::npos)
            push(Kind::String, begin, pos_ - 1 - begin);
        else
            push(Kind::String, decoded, out.size() - decoded, true);
    }

    /** The code point of a \u escape's four hex digits. */
    std::uint32_t
    hex4()
    {
        std::uint32_t code = 0;
        const char *first = text_.data() + pos_;
        if (text_.size() - pos_ < 4 ||
            std::from_chars(first, first + 4, code, 16).ptr != first + 4)
            fail("invalid \\u escape");
        if (code >= 0xd800 && code <= 0xdfff)
            fail("surrogate \\u escape");
        pos_ += 4;
        return code;
    }

    void
    digits()
    {
        if (!(pos_ < text_.size() && isDigit(text_[pos_])))
            fail("malformed number");
        while (pos_ < text_.size() && isDigit(text_[pos_]))
            ++pos_;
    }

    /** The number starting at @p start (its first byte was consumed). */
    void
    number(std::size_t start)
    {
        pos_ = start + (text_[start] == '-');
        if (at('0'))
            ++pos_;
        else
            digits();
        if (at('.')) {
            ++pos_;
            digits();
        }
        if (at('e') || at('E')) {
            ++pos_;
            if (at('+') || at('-'))
                ++pos_;
            digits();
        }
        double value = 0.0;
        const char *last = text_.data() + pos_;
        const auto [end, ec] =
            std::from_chars(text_.data() + start, last, value);
        if (ec != std::errc() || end != last) {
            pos_ = start;
            fail("number out of the range of a double");
        }
        push(Kind::Number, start, pos_ - start);
    }

    Document &doc_;
    const std::string &text_;
    std::size_t pos_ = 0;
};

Document::Document(std::string text) : Value(this, 0), text_(std::move(text))
{
    Parser(*this).run();
}

Kind
Document::kindAt(std::uint32_t i) const
{
    return static_cast<Kind>(nodes_[i].packed & kindMask);
}

std::uint32_t
Document::after(std::uint32_t i) const
{
    const std::uint32_t packed = nodes_[i].packed;
    const auto kind = static_cast<Kind>(packed & kindMask);
    return kind == Kind::Array || kind == Kind::Object
        ? i + 1 + (packed >> extentShift)
        : i + 1;
}

std::string_view
Document::textAt(std::uint32_t i) const
{
    const Node node = nodes_[i];
    const std::string &bytes = node.packed & escapedBit ? decoded_ : text_;
    return std::string_view(bytes).substr(node.begin,
                                          node.packed >> extentShift);
}

Document
parse(std::string text)
{
    return Document(std::move(text));
}

Kind
Value::kind() const
{
    return doc_->kindAt(index_);
}

bool
Value::asBool() const
{
    return kind() == Kind::Bool && doc_->textAt(index_) == "true";
}

double
Value::asNumber() const
{
    double value = 0.0;
    if (isNumber()) { // the parser checked that the whole token converts
        const std::string_view digits = doc_->textAt(index_);
        std::from_chars(digits.data(), digits.data() + digits.size(), value);
    }
    return value;
}

std::string_view
Value::text() const
{
    const Kind k = kind();
    return k == Kind::String || k == Kind::Number ? doc_->textAt(index_)
                                                  : std::string_view();
}

std::optional<Value>
Value::find(std::string_view key) const
{
    for (const auto &[name, value] : members())
        if (name == key)
            return value;
    return std::nullopt;
}

double
Value::num(std::string_view key, double fallback) const
{
    const std::optional<Value> v = find(key);
    return v && v->isNumber() ? v->asNumber() : fallback;
}

std::string
Value::str(std::string_view key) const
{
    const std::optional<Value> v = find(key);
    return v && v->isString() ? std::string(v->text()) : std::string();
}

Children<Value>
Value::items() const
{
    return isArray() ? Children<Value>(doc_, index_ + 1, doc_->after(index_))
                     : Children<Value>(doc_, 0, 0);
}

Children<Member>
Value::members() const
{
    return isObject()
        ? Children<Member>(doc_, index_ + 1, doc_->after(index_))
        : Children<Member>(doc_, 0, 0);
}

std::string
escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace ctcp::json
