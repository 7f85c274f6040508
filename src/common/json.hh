/**
 * @file
 * The one JSON module: a reader that parses a document into a flat
 * node table, and the string escaping every JSON writer uses.
 *
 * Node layout. parse() keeps one copy of the text and walks it once,
 * appending one 8-byte node per value and per object key in document
 * order: an object's node is followed by its members as key, value
 * pairs, an array's by its items. A node packs its kind, an offset
 * into the text (a string's first byte after the quote) and a 28-bit
 * extent: a scalar's length in bytes, or a container's count of nodes
 * below it, so the next sibling is one addition away. Numbers keep
 * their text and convert on demand; only a string with an escape is
 * decoded, into one buffer beside the text.
 *
 * Memory bound. A document holds its text, 8 bytes per node and the
 * decoded bytes of escaped strings. The node table grows in 512-byte
 * blocks (a std::deque), so no reallocation ever holds two copies of
 * it. A 1.17 MB trace of 10k retire events holds under 3 MB. Texts of
 * 256 MiB or more are rejected.
 *
 * Grammar. RFC 8259, strictly: no trailing commas, comments or raw
 * control characters in strings, and a number is
 * -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? whose value, read by
 * std::from_chars over the whole token, is a finite double (1e999 is
 * rejected). A \u escape decodes to UTF-8; one in the surrogate range
 * (\ud800-\udfff) is rejected, as nothing the repository writes uses
 * them (raw UTF-8 passes through).
 * Member order is kept, and find() returns the first of duplicate
 * keys. Nesting depth is bounded only by memory (no recursion).
 */

#ifndef CTCPSIM_COMMON_JSON_HH
#define CTCPSIM_COMMON_JSON_HH

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

namespace ctcp::json {

enum class Kind : std::uint8_t { Null, Bool, Number, String, Array, Object };

class Document;
template <typename T> class Children;
class Value;
/** One object member: its decoded key and its value. */
using Member = std::pair<std::string_view, Value>;

/** One value of a Document; a view, valid while the Document lives. */
class Value
{
  public:
    Kind kind() const;
    bool isNumber() const { return kind() == Kind::Number; }
    bool isString() const { return kind() == Kind::String; }
    bool isArray() const { return kind() == Kind::Array; }
    bool isObject() const { return kind() == Kind::Object; }

    /** A Bool's value; false for every other kind. */
    bool asBool() const;

    /** A Number's value (always finite); 0.0 for every other kind. */
    double asNumber() const;

    /**
     * A String's decoded bytes, or a Number's text exactly as written
     * (so an integer converts without a trip through double); "" for
     * every other kind.
     */
    std::string_view text() const;

    /** The first member named @p key; empty when absent or not an object. */
    std::optional<Value> find(std::string_view key) const;

    /** Member @p key as a number, or @p fallback when absent/non-numeric. */
    double num(std::string_view key, double fallback = 0.0) const;

    /** Member @p key as a string, or "" when absent/non-string. */
    std::string str(std::string_view key) const;

    /** An array's items in order; none for every other kind. */
    Children<Value> items() const;

    /** An object's members in order; none for every other kind. */
    Children<Member> members() const;

  private:
    friend class Document;
    template <typename T> friend class Children;

    Value(const Document *doc, std::uint32_t index)
        : doc_(doc), index_(index)
    {}

    const Document *doc_;
    std::uint32_t index_;
};

/**
 * A parsed document: owns the text, the node table and the decoded
 * strings, and is the view of its root value. It neither copies nor
 * moves, so every view taken from it stays valid for its lifetime.
 */
class Document : public Value
{
  public:
    Document(const Document &) = delete;
    Document &operator=(const Document &) = delete;

  private:
    friend class Value;
    friend class Parser;
    template <typename T> friend class Children;
    friend Document parse(std::string text);

    struct Node
    {
        std::uint32_t begin;  ///< text_ offset, or decoded_ when escaped
        std::uint32_t packed; ///< kind | escaped << 3 | extent << 4
    };

    explicit Document(std::string text);

    Kind kindAt(std::uint32_t i) const;
    /** The index just past node @p i and everything below it. */
    std::uint32_t after(std::uint32_t i) const;
    std::string_view textAt(std::uint32_t i) const;

    std::string text_;
    std::string decoded_;
    std::deque<Node> nodes_;
};

/** The items of an array (T = Value) or members of an object (Member). */
template <typename T>
class Children
{
    static constexpr bool keyed = std::is_same_v<T, Member>;

  public:
    struct iterator
    {
        const Document *doc;
        std::uint32_t at;

        T
        operator*() const
        {
            if constexpr (keyed)
                return {doc->textAt(at), Value(doc, at + 1)};
            else
                return Value(doc, at);
        }

        iterator &
        operator++()
        {
            at = doc->after(keyed ? at + 1 : at);
            return *this;
        }

        bool operator==(const iterator &o) const { return at == o.at; }
    };

    iterator begin() const { return {doc_, first_}; }
    iterator end() const { return {doc_, last_}; }

  private:
    friend class Value;
    Children(const Document *doc, std::uint32_t first, std::uint32_t last)
        : doc_(doc), first_(first), last_(last)
    {}

    const Document *doc_;
    std::uint32_t first_;
    std::uint32_t last_;
};

/**
 * Parse one complete JSON document.
 * @throws std::runtime_error naming the byte position of the first
 *         error when @p text is not one RFC 8259 value (surrounded by
 *         optional whitespace)
 */
Document parse(std::string text);

/**
 * @p s as the body of a JSON string: '"', '\\', newline, return and
 * tab escaped by name, other control characters as \u00XX, every
 * other byte as it is.
 */
std::string escape(std::string_view s);

} // namespace ctcp::json

#endif // CTCPSIM_COMMON_JSON_HH
