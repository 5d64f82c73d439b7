#include "engine/query_parser.h"

#include <algorithm>
#include <cctype>
#include <limits>
#include <optional>
#include <vector>

#include "common/logging.h"

namespace cubetree {

namespace {

enum class TokenKind { kIdent, kNumber, kComma, kLParen, kRParen, kEq, kEnd };

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;   // Identifiers (lower-cased) and numbers.
  Coord number = 0;
};

class Lexer {
 public:
  explicit Lexer(const std::string& input) : input_(input) {}

  Result<Token> Next() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
    Token token;
    if (pos_ >= input_.size()) return token;
    const char c = input_[pos_];
    if (c == ',') {
      ++pos_;
      token.kind = TokenKind::kComma;
    } else if (c == '(') {
      ++pos_;
      token.kind = TokenKind::kLParen;
    } else if (c == ')') {
      ++pos_;
      token.kind = TokenKind::kRParen;
    } else if (c == '=') {
      ++pos_;
      token.kind = TokenKind::kEq;
    } else if (c == '*') {
      // Only valid as COUNT(*)'s argument; treated as an identifier.
      ++pos_;
      token.kind = TokenKind::kIdent;
      token.text = "*";
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      token.kind = TokenKind::kNumber;
      while (pos_ < input_.size() &&
             std::isdigit(static_cast<unsigned char>(input_[pos_]))) {
        token.text += input_[pos_++];
      }
      const std::optional<uint64_t> value =
          ParseUint(token.text, std::numeric_limits<Coord>::max());
      if (!value.has_value()) {
        return Status::InvalidArgument("number " + token.text +
                                       " does not fit a key value");
      }
      token.number = static_cast<Coord>(*value);
    } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      token.kind = TokenKind::kIdent;
      while (pos_ < input_.size() &&
             (std::isalnum(static_cast<unsigned char>(input_[pos_])) ||
              input_[pos_] == '_' || input_[pos_] == '.')) {
        token.text += static_cast<char>(
            std::tolower(static_cast<unsigned char>(input_[pos_])));
        ++pos_;
      }
    } else {
      return Status::InvalidArgument(std::string("unexpected character '") +
                                     c + "' in query");
    }
    return token;
  }

 private:
  const std::string& input_;
  size_t pos_ = 0;
};

class Parser {
 public:
  Parser(const std::string& sql, const CubeSchema& schema)
      : lexer_(sql), schema_(&schema) {}

  Result<ParsedQuery> Parse() {
    CT_RETURN_NOT_OK(Advance());
    CT_RETURN_NOT_OK(ExpectKeyword("select"));

    ParsedQuery parsed;
    std::vector<uint32_t> select_attrs;
    bool saw_aggregate = false;
    // Select list: idents and one aggregate call.
    while (true) {
      if (current_.kind != TokenKind::kIdent) {
        return Status::InvalidArgument("expected column or aggregate");
      }
      const std::string name = current_.text;
      CT_RETURN_NOT_OK(Advance());
      if (current_.kind == TokenKind::kLParen) {
        if (saw_aggregate) {
          return Status::InvalidArgument("only one aggregate is supported");
        }
        if (name == "sum") {
          parsed.fn = AggFn::kSum;
        } else if (name == "count") {
          parsed.fn = AggFn::kCount;
        } else if (name == "avg") {
          parsed.fn = AggFn::kAvg;
        } else {
          return Status::InvalidArgument("unknown aggregate '" + name + "'");
        }
        CT_RETURN_NOT_OK(Advance());  // Consume '('.
        if (current_.kind != TokenKind::kIdent ||
            (current_.text != schema_->measure_name &&
             current_.text != "*")) {
          return Status::InvalidArgument(
              "aggregate must be over the measure '" +
              schema_->measure_name + "'");
        }
        CT_RETURN_NOT_OK(Advance());
        if (current_.kind != TokenKind::kRParen) {
          return Status::InvalidArgument("expected ')'");
        }
        CT_RETURN_NOT_OK(Advance());
        saw_aggregate = true;
      } else {
        CT_ASSIGN_OR_RETURN(uint32_t attr, ResolveAttr(name));
        select_attrs.push_back(attr);
      }
      if (current_.kind == TokenKind::kComma) {
        CT_RETURN_NOT_OK(Advance());
        continue;
      }
      break;
    }
    if (!saw_aggregate) {
      return Status::InvalidArgument("select list needs an aggregate");
    }
    CT_RETURN_NOT_OK(ExpectKeyword("from"));
    if (current_.kind != TokenKind::kIdent) {
      return Status::InvalidArgument("expected table name after FROM");
    }
    CT_RETURN_NOT_OK(Advance());

    // WHERE: conjunction of equality and BETWEEN predicates.
    std::vector<std::pair<uint32_t, Coord>> predicates;
    std::vector<std::pair<uint32_t, std::pair<Coord, Coord>>> range_preds;
    if (IsKeyword("where")) {
      CT_RETURN_NOT_OK(Advance());
      while (true) {
        if (current_.kind != TokenKind::kIdent) {
          return Status::InvalidArgument("expected attribute in WHERE");
        }
        CT_ASSIGN_OR_RETURN(uint32_t attr, ResolveAttr(current_.text));
        CT_RETURN_NOT_OK(Advance());
        if (current_.kind == TokenKind::kEq) {
          CT_RETURN_NOT_OK(Advance());
          if (current_.kind != TokenKind::kNumber) {
            return Status::InvalidArgument("expected key value");
          }
          predicates.emplace_back(attr, current_.number);
          CT_RETURN_NOT_OK(Advance());
        } else if (IsKeyword("between")) {
          CT_RETURN_NOT_OK(Advance());
          if (current_.kind != TokenKind::kNumber) {
            return Status::InvalidArgument("expected BETWEEN lower bound");
          }
          const Coord lo = current_.number;
          CT_RETURN_NOT_OK(Advance());
          CT_RETURN_NOT_OK(ExpectKeyword("and"));
          if (current_.kind != TokenKind::kNumber) {
            return Status::InvalidArgument("expected BETWEEN upper bound");
          }
          const Coord hi = current_.number;
          if (hi < lo) {
            return Status::InvalidArgument("empty BETWEEN interval");
          }
          range_preds.emplace_back(attr, std::make_pair(lo, hi));
          CT_RETURN_NOT_OK(Advance());
        } else {
          return Status::InvalidArgument(
              "only '=' and BETWEEN predicates are supported");
        }
        if (IsKeyword("and")) {
          CT_RETURN_NOT_OK(Advance());
          continue;
        }
        break;
      }
    }

    // GROUP BY must equal the non-aggregate select list.
    std::vector<uint32_t> group_attrs;
    if (IsKeyword("group")) {
      CT_RETURN_NOT_OK(Advance());
      CT_RETURN_NOT_OK(ExpectKeyword("by"));
      while (true) {
        if (current_.kind != TokenKind::kIdent) {
          return Status::InvalidArgument("expected attribute in GROUP BY");
        }
        CT_ASSIGN_OR_RETURN(uint32_t attr, ResolveAttr(current_.text));
        group_attrs.push_back(attr);
        CT_RETURN_NOT_OK(Advance());
        if (current_.kind == TokenKind::kComma) {
          CT_RETURN_NOT_OK(Advance());
          continue;
        }
        break;
      }
    }
    if (current_.kind != TokenKind::kEnd) {
      return Status::InvalidArgument("unexpected trailing tokens");
    }
    if (group_attrs != select_attrs) {
      return Status::InvalidArgument(
          "GROUP BY must list exactly the selected attributes");
    }

    // Assemble the slice query: node = group attrs + predicate attrs, in
    // canonical ascending order. A range-restricted attribute may or may
    // not be grouped; an equality-bound one must not be.
    SliceQuery& query = parsed.query;
    std::vector<uint32_t> node_attrs = select_attrs;
    for (const auto& [attr, value] : predicates) {
      if (std::find(node_attrs.begin(), node_attrs.end(), attr) !=
          node_attrs.end()) {
        return Status::InvalidArgument(
            "attribute cannot be both grouped and bound");
      }
      node_attrs.push_back(attr);
    }
    for (const auto& [attr, interval] : range_preds) {
      if (std::find(node_attrs.begin(), node_attrs.end(), attr) ==
          node_attrs.end()) {
        node_attrs.push_back(attr);
      }
    }
    std::sort(node_attrs.begin(), node_attrs.end());
    query.attrs = node_attrs;
    query.node_mask = 0;
    for (uint32_t a : node_attrs) query.node_mask |= (1u << a);
    query.bindings.assign(node_attrs.size(), std::nullopt);
    query.ranges.assign(node_attrs.size(), std::nullopt);
    query.grouped.assign(node_attrs.size(), false);
    for (size_t i = 0; i < node_attrs.size(); ++i) {
      query.grouped[i] =
          std::find(select_attrs.begin(), select_attrs.end(),
                    node_attrs[i]) != select_attrs.end();
      for (const auto& [attr, value] : predicates) {
        if (node_attrs[i] == attr) query.bindings[i] = value;
      }
      for (const auto& [attr, interval] : range_preds) {
        if (node_attrs[i] == attr) query.ranges[i] = interval;
      }
    }
    return parsed;
  }

 private:
  Status Advance() {
    CT_ASSIGN_OR_RETURN(current_, lexer_.Next());
    return Status::OK();
  }

  bool IsKeyword(const std::string& word) const {
    return current_.kind == TokenKind::kIdent && current_.text == word;
  }

  Status ExpectKeyword(const std::string& word) {
    if (!IsKeyword(word)) {
      return Status::InvalidArgument("expected keyword '" + word + "'");
    }
    return Advance();
  }

  Result<uint32_t> ResolveAttr(const std::string& name) const {
    const int index = schema_->AttrIndex(name);
    if (index < 0) {
      return Status::InvalidArgument("unknown attribute '" + name + "'");
    }
    return static_cast<uint32_t>(index);
  }

  Lexer lexer_;
  const CubeSchema* schema_;
  Token current_;
};

}  // namespace

Result<ParsedQuery> ParseSliceQuery(const std::string& sql,
                                    const CubeSchema& schema) {
  Parser parser(sql, schema);
  return parser.Parse();
}

}  // namespace cubetree
