#include "rules/expression.h"

#include <cctype>

#include "common/strings.h"

namespace cdibot {

struct Expression::Node {
  enum class Kind { kEvent, kAnd, kOr, kNot } kind = Kind::kEvent;
  std::string event;              // kEvent
  std::unique_ptr<Node> lhs;      // kAnd/kOr/kNot
  std::unique_ptr<Node> rhs;      // kAnd/kOr

  std::unique_ptr<Node> Clone() const {
    auto n = std::make_unique<Node>();
    n->kind = kind;
    n->event = event;
    if (lhs) n->lhs = lhs->Clone();
    if (rhs) n->rhs = rhs->Clone();
    return n;
  }
};

namespace {

struct Token {
  enum class Kind { kIdent, kAnd, kOr, kNot, kLParen, kRParen, kEnd };
  Kind kind = Kind::kEnd;
  std::string text;
  size_t pos = 0;
};

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  StatusOr<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    size_t i = 0;
    while (i < text_.size()) {
      const char c = text_[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (c == '(') {
        out.push_back({Token::Kind::kLParen, "(", i});
        ++i;
      } else if (c == ')') {
        out.push_back({Token::Kind::kRParen, ")", i});
        ++i;
      } else if (c == '!') {
        out.push_back({Token::Kind::kNot, "!", i});
        ++i;
      } else if (c == '&') {
        if (i + 1 >= text_.size() || text_[i + 1] != '&') {
          return Status::InvalidArgument(
              StrFormat("expected '&&' at position %zu", i));
        }
        out.push_back({Token::Kind::kAnd, "&&", i});
        i += 2;
      } else if (c == '|') {
        if (i + 1 >= text_.size() || text_[i + 1] != '|') {
          return Status::InvalidArgument(
              StrFormat("expected '||' at position %zu", i));
        }
        out.push_back({Token::Kind::kOr, "||", i});
        i += 2;
      } else if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        size_t j = i;
        while (j < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[j])) ||
                text_[j] == '_')) {
          ++j;
        }
        const std::string word = text_.substr(i, j - i);
        if (word == "and") {
          out.push_back({Token::Kind::kAnd, word, i});
        } else if (word == "or") {
          out.push_back({Token::Kind::kOr, word, i});
        } else if (word == "not") {
          out.push_back({Token::Kind::kNot, word, i});
        } else {
          out.push_back({Token::Kind::kIdent, word, i});
        }
        i = j;
      } else {
        return Status::InvalidArgument(
            StrFormat("unexpected character '%c' at position %zu", c, i));
      }
    }
    out.push_back({Token::Kind::kEnd, "", text_.size()});
    return out;
  }

 private:
  const std::string& text_;
};

}  // namespace

namespace {

// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  StatusOr<std::unique_ptr<Expression::Node>> Parse() {
    CDIBOT_ASSIGN_OR_RETURN(auto node, ParseOr());
    if (Peek().kind != Token::Kind::kEnd) {
      return Status::InvalidArgument(
          StrFormat("unexpected token '%s' at position %zu",
                    Peek().text.c_str(), Peek().pos));
    }
    return node;
  }

 private:
  using NodePtr = std::unique_ptr<Expression::Node>;

  const Token& Peek() const { return tokens_[cursor_]; }
  Token Consume() { return tokens_[cursor_++]; }

  StatusOr<NodePtr> ParseOr() {
    CDIBOT_ASSIGN_OR_RETURN(NodePtr lhs, ParseAnd());
    while (Peek().kind == Token::Kind::kOr) {
      Consume();
      CDIBOT_ASSIGN_OR_RETURN(NodePtr rhs, ParseAnd());
      auto node = std::make_unique<Expression::Node>();
      node->kind = Expression::Node::Kind::kOr;
      node->lhs = std::move(lhs);
      node->rhs = std::move(rhs);
      lhs = std::move(node);
    }
    return lhs;
  }

  StatusOr<NodePtr> ParseAnd() {
    CDIBOT_ASSIGN_OR_RETURN(NodePtr lhs, ParseUnary());
    while (Peek().kind == Token::Kind::kAnd) {
      Consume();
      CDIBOT_ASSIGN_OR_RETURN(NodePtr rhs, ParseUnary());
      auto node = std::make_unique<Expression::Node>();
      node->kind = Expression::Node::Kind::kAnd;
      node->lhs = std::move(lhs);
      node->rhs = std::move(rhs);
      lhs = std::move(node);
    }
    return lhs;
  }

  StatusOr<NodePtr> ParseUnary() {
    if (Peek().kind == Token::Kind::kNot) {
      Consume();
      CDIBOT_ASSIGN_OR_RETURN(NodePtr operand, ParseUnary());
      auto node = std::make_unique<Expression::Node>();
      node->kind = Expression::Node::Kind::kNot;
      node->lhs = std::move(operand);
      return node;
    }
    return ParsePrimary();
  }

  StatusOr<NodePtr> ParsePrimary() {
    const Token tok = Consume();
    if (tok.kind == Token::Kind::kIdent) {
      auto node = std::make_unique<Expression::Node>();
      node->kind = Expression::Node::Kind::kEvent;
      node->event = tok.text;
      return node;
    }
    if (tok.kind == Token::Kind::kLParen) {
      CDIBOT_ASSIGN_OR_RETURN(NodePtr inner, ParseOr());
      if (Peek().kind != Token::Kind::kRParen) {
        return Status::InvalidArgument(
            StrFormat("missing ')' at position %zu", Peek().pos));
      }
      Consume();
      return inner;
    }
    return Status::InvalidArgument(
        StrFormat("expected event name or '(' at position %zu", tok.pos));
  }

  std::vector<Token> tokens_;
  size_t cursor_ = 0;
};

bool EvalNode(const Expression::Node& node,
              const std::set<std::string>& active) {
  switch (node.kind) {
    case Expression::Node::Kind::kEvent:
      return active.count(node.event) > 0;
    case Expression::Node::Kind::kAnd:
      return EvalNode(*node.lhs, active) && EvalNode(*node.rhs, active);
    case Expression::Node::Kind::kOr:
      return EvalNode(*node.lhs, active) || EvalNode(*node.rhs, active);
    case Expression::Node::Kind::kNot:
      return !EvalNode(*node.lhs, active);
  }
  return false;
}

void CollectEvents(const Expression::Node& node, std::set<std::string>* out) {
  switch (node.kind) {
    case Expression::Node::Kind::kEvent:
      out->insert(node.event);
      return;
    case Expression::Node::Kind::kNot:
      CollectEvents(*node.lhs, out);
      return;
    default:
      CollectEvents(*node.lhs, out);
      CollectEvents(*node.rhs, out);
      return;
  }
}

std::string RenderNode(const Expression::Node& node);

/// "(lhs <op> rhs)", built by appending (a literal-first operator+ chain
/// trips GCC's -Wrestrict inside libstdc++ at -O3).
std::string RenderBinary(const Expression::Node& node, const char* op) {
  std::string out = "(";
  out.append(RenderNode(*node.lhs)).append(op).append(RenderNode(*node.rhs));
  return out.append(")");
}

std::string RenderNode(const Expression::Node& node) {
  switch (node.kind) {
    case Expression::Node::Kind::kEvent:
      return node.event;
    case Expression::Node::Kind::kAnd:
      return RenderBinary(node, " && ");
    case Expression::Node::Kind::kOr:
      return RenderBinary(node, " || ");
    case Expression::Node::Kind::kNot: {
      std::string out = "!";
      return out.append(RenderNode(*node.lhs));
    }
  }
  return "?";
}

}  // namespace

Expression::Expression(std::unique_ptr<Node> root) : root_(std::move(root)) {}

Expression::Expression(Expression&&) noexcept = default;
Expression& Expression::operator=(Expression&&) noexcept = default;
Expression::~Expression() = default;

Expression::Expression(const Expression& other)
    : root_(other.root_ ? other.root_->Clone() : nullptr) {}

Expression& Expression::operator=(const Expression& other) {
  if (this != &other) {
    root_ = other.root_ ? other.root_->Clone() : nullptr;
  }
  return *this;
}

StatusOr<Expression> Expression::Parse(const std::string& text) {
  Lexer lexer(text);
  CDIBOT_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  CDIBOT_ASSIGN_OR_RETURN(auto root, parser.Parse());
  return Expression(std::move(root));
}

bool Expression::Eval(const std::set<std::string>& active_events) const {
  return root_ != nullptr && EvalNode(*root_, active_events);
}

std::vector<std::string> Expression::ReferencedEvents() const {
  std::set<std::string> events;
  if (root_ != nullptr) CollectEvents(*root_, &events);
  return std::vector<std::string>(events.begin(), events.end());
}

std::string Expression::ToString() const {
  return root_ != nullptr ? RenderNode(*root_) : "";
}

}  // namespace cdibot
