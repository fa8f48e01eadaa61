#include "checker.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "callgraph.h"
#include "dataflow.h"
#include "symbols.h"

namespace skyrise::check {
namespace {

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// True when `path` lives under a top-level directory that may write to
/// stdout directly (CLI tools and examples narrate; library code must not).
bool StdoutExempt(const std::string& path) {
  for (const char* dir : {"tools/", "examples/"}) {
    if (path.rfind(dir, 0) == 0 || path.find(std::string("/") + dir) !=
                                       std::string::npos) {
      return true;
    }
  }
  return false;
}

/// True for simulator-core files, where every event fire crosses this code
/// and per-call allocations multiply by millions. Bare file names are in
/// scope only when they name hot-path fixtures, so the other rule fixtures
/// stay out of this rule's reach.
bool SimScoped(const std::string& path) {
  if (path.find('/') == std::string::npos) {
    return path.find("hot_path") != std::string::npos;
  }
  return path.rfind("src/sim/", 0) == 0 ||
         path.find("/src/sim/") != std::string::npos;
}

/// Case-insensitive substring search over identifier text.
bool ContainsCi(const std::string& haystack, const std::string& needle) {
  if (needle.size() > haystack.size()) return false;
  for (size_t i = 0; i + needle.size() <= haystack.size(); ++i) {
    size_t j = 0;
    while (j < needle.size() &&
           std::tolower(static_cast<unsigned char>(haystack[i + j])) ==
               std::tolower(static_cast<unsigned char>(needle[j]))) {
      ++j;
    }
    if (j == needle.size()) return true;
  }
  return false;
}

/// Parses rule ids out of a suppression comment body, e.g.
/// "skyrise-check: allow(banned-api, raw-stdout)".
void ParseAllows(const std::string& comment, int line,
                 std::map<int, std::set<std::string>>* allows) {
  const std::string marker = "skyrise-check: allow(";
  size_t pos = comment.find(marker);
  while (pos != std::string::npos) {
    const size_t open = pos + marker.size();
    const size_t close = comment.find(')', open);
    if (close == std::string::npos) break;
    std::string inside = comment.substr(open, close - open);
    std::string rule;
    std::stringstream ss(inside);
    while (std::getline(ss, rule, ',')) {
      const size_t b = rule.find_first_not_of(" \t");
      const size_t e = rule.find_last_not_of(" \t");
      if (b == std::string::npos) continue;
      (*allows)[line].insert(rule.substr(b, e - b + 1));
    }
    pos = comment.find(marker, close);
  }
}

/// Skips whitespace forward from `i` within a single line.
size_t SkipSpaces(const std::string& s, size_t i) {
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  return i;
}

/// Reads the identifier token starting at `i` (must be an ident char).
std::string ReadIdent(const std::string& s, size_t i) {
  size_t e = i;
  while (e < s.size() && IsIdentChar(s[e])) ++e;
  return s.substr(i, e - i);
}

/// Finds the matching `>` for a template argument list whose `<` is at
/// `open`, treating `>>` as two closers. Returns npos when unbalanced.
size_t MatchAngle(const std::string& s, size_t open) {
  int depth = 0;
  for (size_t i = open; i < s.size(); ++i) {
    if (s[i] == '<') ++depth;
    if (s[i] == '>') {
      --depth;
      if (depth == 0) return i;
    }
  }
  return std::string::npos;
}

}  // namespace

SourceFile Preprocess(const std::string& path, const std::string& contents) {
  SourceFile file;
  file.path = path;
  file.is_header = EndsWith(path, ".h") || EndsWith(path, ".hpp");

  // Split into lines (keep an empty trailing line off).
  {
    std::string line;
    for (char c : contents) {
      if (c == '\n') {
        file.raw.push_back(line);
        line.clear();
      } else if (c != '\r') {
        line.push_back(c);
      }
    }
    if (!line.empty()) file.raw.push_back(line);
  }

  enum class State { kCode, kBlockComment, kString, kChar, kRawString };
  State state = State::kCode;
  std::string raw_delim;  // closing delimiter for a raw string, `)delim"`.

  for (size_t li = 0; li < file.raw.size(); ++li) {
    const std::string& in = file.raw[li];
    std::string out(in.size(), ' ');
    std::string comment_text;
    for (size_t i = 0; i < in.size(); ++i) {
      const char c = in[i];
      const char next = i + 1 < in.size() ? in[i + 1] : '\0';
      switch (state) {
        case State::kCode:
          if (c == '/' && next == '/') {
            comment_text += in.substr(i);
            i = in.size();
          } else if (c == '/' && next == '*') {
            state = State::kBlockComment;
            ++i;
          } else if (c == '"' && i >= 1 && in[i - 1] == 'R') {
            // Raw string literal R"delim( ... )delim".
            const size_t open = in.find('(', i);
            if (open == std::string::npos) break;
            raw_delim = ")" + in.substr(i + 1, open - i - 1) + "\"";
            state = State::kRawString;
            i = open;
          } else if (c == '"') {
            state = State::kString;
          } else if (c == '\'') {
            state = State::kChar;
          } else {
            out[i] = c;
          }
          break;
        case State::kBlockComment:
          if (c == '*' && next == '/') {
            state = State::kCode;
            ++i;
          } else {
            comment_text.push_back(c);
          }
          break;
        case State::kString:
          if (c == '\\') {
            ++i;
          } else if (c == '"') {
            state = State::kCode;
          }
          break;
        case State::kChar:
          if (c == '\\') {
            ++i;
          } else if (c == '\'') {
            state = State::kCode;
          }
          break;
        case State::kRawString: {
          const size_t end = in.find(raw_delim, i);
          if (end == std::string::npos) {
            i = in.size();
          } else {
            i = end + raw_delim.size() - 1;
            state = State::kCode;
          }
          break;
        }
      }
    }
    if (state == State::kBlockComment) {
      // Block comments continue; the whole remainder of the line was comment.
    }
    if (!comment_text.empty()) {
      ParseAllows(comment_text, static_cast<int>(li) + 1, &file.allows);
    }
    file.code.push_back(std::move(out));
  }
  return file;
}

const std::vector<std::string>& Checker::RuleIds() {
  static const std::vector<std::string> kRules = {
      "banned-api",          "unordered-iteration",
      "pragma-once",         "using-namespace",
      "raw-stdout",          "unbounded-retry",
      "sim-hot-path",
      "unchecked-result-access",
      "status-path-drop",    "use-after-move",
      "span-leak",           "unordered-taint",
      "transitive-nondeterminism",
      "shared-mutable-state",
      "unbounded-retry-wrapper",
      "span-transfer-leak"};
  return kRules;
}

bool IsSuppressed(const SourceFile& file, int line, const std::string& rule) {
  for (int l : {line, line - 1}) {
    auto it = file.allows.find(l);
    if (it != file.allows.end() && it->second.count(rule) > 0) return true;
  }
  return false;
}

void EmitDiagnostic(const SourceFile& file, int line, const std::string& rule,
                    std::string message, std::vector<Diagnostic>* out) {
  if (IsSuppressed(file, line, rule)) return;
  out->push_back(Diagnostic{file.path, line, rule, std::move(message)});
}

namespace {

// Local alias so the pre-existing rule bodies keep reading naturally.
void Emit(const SourceFile& file, int line, const std::string& rule,
          std::string message, std::vector<Diagnostic>* out) {
  EmitDiagnostic(file, line, rule, std::move(message), out);
}

}  // namespace

void Checker::CollectFallibleNames(const SourceFile& file) {
  for (const std::string& line : file.code) {
    for (size_t i = 0; i < line.size(); ++i) {
      if (!IsIdentChar(line[i]) || (i > 0 && IsIdentChar(line[i - 1]))) {
        continue;
      }
      const std::string tok = ReadIdent(line, i);
      size_t after = i + tok.size();
      const bool is_void = tok == "void";
      if (tok == "Result") {
        const size_t open = SkipSpaces(line, after);
        if (open >= line.size() || line[open] != '<') continue;
        const size_t close = MatchAngle(line, open);
        if (close == std::string::npos) continue;  // multi-line template args
        after = close + 1;
      } else if (tok != "Status" && !is_void) {
        i = after - 1;
        continue;
      }
      // Parse `name(` or a qualified `A::B::name(` chain after the type.
      size_t p = SkipSpaces(line, after);
      std::string name;
      while (p < line.size() && IsIdentChar(line[p])) {
        name = ReadIdent(line, p);
        p = SkipSpaces(line, p + name.size());
        if (p + 1 < line.size() && line[p] == ':' && line[p + 1] == ':') {
          p = SkipSpaces(line, p + 2);
          continue;
        }
        break;
      }
      if (!name.empty() && p < line.size() && line[p] == '(') {
        (is_void ? &void_names_ : &fallible_names_)->insert(name);
        if (tok == "Result") result_names_.insert(name);
      }
      i = after - 1;
    }
  }
}

void Checker::CheckBannedApis(const SourceFile& file,
                              std::vector<Diagnostic>* out) const {
  // The banned-API table lives in symbols.cc (BannedApiReason) so the
  // direct rule here and the transitive taint roots in the symbol index can
  // never drift apart.
  for (size_t li = 0; li < file.code.size(); ++li) {
    const std::string& line = file.code[li];
    const int lineno = static_cast<int>(li) + 1;
    for (size_t i = 0; i < line.size(); ++i) {
      if (!IsIdentChar(line[i]) || (i > 0 && IsIdentChar(line[i - 1]))) {
        continue;
      }
      const std::string tok = ReadIdent(line, i);
      const size_t after = SkipSpaces(line, i + tok.size());
      const char follow = after < line.size() ? line[after] : '\0';
      const bool member_access =
          (i >= 1 && line[i - 1] == '.') ||
          (i >= 2 && line[i - 2] == '-' && line[i - 1] == '>');
      if (const char* why = BannedApiReason(tok)) {
        Emit(file, lineno, "banned-api", tok + ": " + why, out);
      }
      if (!member_access && follow == '(' && (tok == "rand" || tok == "time")) {
        Emit(file, lineno, "banned-api",
             tok + "(): nondeterministic; use skyrise::Rng / virtual time",
             out);
      }
      if (tok == "thread" && line.compare(i, 10, "thread::id") == 0) {
        Emit(file, lineno, "banned-api",
             "thread::id: host scheduling leaks into behavior", out);
      }
      i += tok.size() - 1;
    }
  }
}

void Checker::CollectUnorderedNames(const SourceFile& file) {
  const std::vector<Token> toks = Lex(file);
  std::set<std::string>& names = unordered_names_[file.path];
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!toks[i].Is("unordered_map") && !toks[i].Is("unordered_set")) {
      continue;
    }
    size_t j = i + 1;
    if (toks[j].Is("<")) {
      int depth = 0;
      size_t k = j;
      for (; k < toks.size() && k < j + 256; ++k) {
        if (toks[k].Is("<")) ++depth;
        if (toks[k].Is(">")) --depth;
        if (toks[k].Is(">>")) depth -= 2;
        if (depth <= 0) break;
      }
      j = k + 1;
    }
    while (j < toks.size() &&
           (toks[j].Is("*") || toks[j].Is("&") || toks[j].Is("&&"))) {
      ++j;
    }
    if (j < toks.size() && toks[j].IsIdent()) names.insert(toks[j].text);
  }
}

std::set<std::string> Checker::UnorderedNamesFor(
    const SourceFile& file) const {
  std::set<std::string> names;
  std::vector<std::string> paths = {file.path};
  if (!file.is_header) {
    const std::string stem = file.path.substr(0, file.path.rfind('.'));
    paths.push_back(stem + ".h");
    paths.push_back(stem + ".hpp");
  }
  for (const std::string& path : paths) {
    auto it = unordered_names_.find(path);
    if (it != unordered_names_.end()) {
      names.insert(it->second.begin(), it->second.end());
    }
  }
  return names;
}

void Checker::CheckUnorderedIteration(
    const SourceFile& file, const std::set<std::string>& unordered_vars,
    std::vector<Diagnostic>* out) const {
  if (unordered_vars.empty()) return;

  // Any `for (...)` whose header mentions one of those names — both
  // range-for and iterator forms touch the container's hash order.
  for (size_t li = 0; li < file.code.size(); ++li) {
    const std::string& line = file.code[li];
    size_t pos = 0;
    while ((pos = line.find("for", pos)) != std::string::npos) {
      const bool word =
          (pos == 0 || !IsIdentChar(line[pos - 1])) &&
          (pos + 3 >= line.size() || !IsIdentChar(line[pos + 3]));
      if (!word) {
        pos += 3;
        continue;
      }
      const size_t open = SkipSpaces(line, pos + 3);
      if (open >= line.size() || line[open] != '(') {
        pos += 3;
        continue;
      }
      // Collect the parenthesized header, possibly spanning lines.
      std::string header;
      int depth = 0;
      size_t hl = li, hc = open;
      bool closed = false;
      while (hl < file.code.size() && !closed) {
        const std::string& l2 = file.code[hl];
        for (; hc < l2.size(); ++hc) {
          if (l2[hc] == '(') ++depth;
          if (l2[hc] == ')') {
            --depth;
            if (depth == 0) {
              closed = true;
              break;
            }
          }
          header.push_back(l2[hc]);
        }
        ++hl;
        hc = 0;
        header.push_back(' ');
      }
      for (size_t i = 0; i < header.size(); ++i) {
        if (!IsIdentChar(header[i]) ||
            (i > 0 && IsIdentChar(header[i - 1]))) {
          continue;
        }
        const std::string tok = ReadIdent(header, i);
        i += tok.size() - 1;
        if (unordered_vars.count(tok) > 0) {
          Emit(file, static_cast<int>(li) + 1, "unordered-iteration",
               "loop over unordered container `" + tok +
                   "`: hash order is seed/platform dependent; sort before "
                   "emitting or switch to std::map",
               out);
          break;
        }
      }
      pos += 3;
    }
  }
}

void Checker::CheckHeaderHygiene(const SourceFile& file,
                                 std::vector<Diagnostic>* out) const {
  if (file.is_header) {
    bool has_pragma = false;
    for (const std::string& line : file.raw) {
      const size_t b = line.find_first_not_of(" \t");
      if (b != std::string::npos && line.compare(b, 12, "#pragma once") == 0) {
        has_pragma = true;
        break;
      }
    }
    if (!has_pragma) {
      Emit(file, 1, "pragma-once", "header is missing `#pragma once`", out);
    }
    for (size_t li = 0; li < file.code.size(); ++li) {
      const std::string& line = file.code[li];
      const size_t pos = line.find("using");
      if (pos == std::string::npos) continue;
      if (pos > 0 && IsIdentChar(line[pos - 1])) continue;
      const size_t rest = SkipSpaces(line, pos + 5);
      if (line.compare(rest, 9, "namespace") == 0) {
        Emit(file, static_cast<int>(li) + 1, "using-namespace",
             "`using namespace` in a header leaks into every includer", out);
      }
    }
  }
  if (!StdoutExempt(file.path)) {
    for (size_t li = 0; li < file.code.size(); ++li) {
      const std::string& line = file.code[li];
      size_t pos = 0;
      while ((pos = line.find("cout", pos)) != std::string::npos) {
        const bool word =
            (pos == 0 || !IsIdentChar(line[pos - 1])) &&
            (pos + 4 >= line.size() || !IsIdentChar(line[pos + 4]));
        if (word) {
          Emit(file, static_cast<int>(li) + 1, "raw-stdout",
               "std::cout in library code; use the logging layer or a "
               "report writer",
               out);
          break;
        }
        pos += 4;
      }
    }
  }
}

void Checker::CheckUnboundedRetry(const SourceFile& file,
                                  std::vector<Diagnostic>* out) const {
  if (!SrcScoped(file.path)) return;
  const std::vector<Token> toks = Lex(file);
  const BracketMap brackets = PairBrackets(toks);
  for (const FunctionScope& fn : ExtractFunctions(toks, brackets)) {
    // Lambdas are scanned as part of their enclosing function, whose scope
    // is where the bound (a max-attempts cap, deadline, or budget) lives.
    if (fn.is_lambda) continue;
    const size_t scan_begin =
        fn.params_begin != FunctionScope::kNone ? fn.params_begin
                                                : fn.body_begin;
    // Trigger: a Schedule(...) call whose argument tokens (including any
    // lambda body inside the call) mention retry-ish work.
    int trigger_line = 0;
    for (size_t i = fn.body_begin + 1; i < fn.body_end && trigger_line == 0;
         ++i) {
      if (!toks[i].IsIdent() || !toks[i].Is("Schedule")) continue;
      if (i + 1 >= toks.size() || !toks[i + 1].Is("(")) continue;
      const size_t close = brackets.MatchOf(i + 1);
      if (close == BracketMap::kUnmatched) continue;
      for (size_t j = i + 2; j < close; ++j) {
        if (toks[j].IsIdent() && (ContainsCi(toks[j].text, "retry") ||
                                  ContainsCi(toks[j].text, "backoff") ||
                                  ContainsCi(toks[j].text, "attempt"))) {
          trigger_line = toks[i].line;
          break;
        }
      }
    }
    if (trigger_line == 0) continue;
    // Bound: any identifier in the function mentioning a budget, a
    // deadline, or a max-attempts cap shows the retry loop is clamped.
    bool bounded = false;
    for (size_t i = scan_begin; i <= fn.body_end && !bounded; ++i) {
      if (!toks[i].IsIdent()) continue;
      bounded = ContainsCi(toks[i].text, "budget") ||
                ContainsCi(toks[i].text, "deadline") ||
                (ContainsCi(toks[i].text, "max") &&
                 ContainsCi(toks[i].text, "attempt"));
    }
    if (bounded) continue;
    Emit(file, trigger_line, "unbounded-retry",
         "`" + (fn.name.empty() ? std::string("<function>") : fn.name) +
             "` schedules retry work with no visible bound (no deadline, "
             "retry budget, or max-attempts cap in scope); unbounded "
             "retries amplify overload",
         out);
  }
}

void Checker::CheckSimHotPath(const SourceFile& file,
                              std::vector<Diagnostic>* out) const {
  if (!SimScoped(file.path)) return;

  // Half A: by-value std::function parameters. References, pointers, and
  // rvalue refs all fail the follow-character check, and the walk-back
  // proves parameter position.
  for (size_t li = 0; li < file.code.size(); ++li) {
    const std::string& line = file.code[li];
    size_t pos = 0;
    while ((pos = line.find("std::function", pos)) != std::string::npos) {
      const size_t start = pos;
      pos += 13;
      if (start > 0 && IsIdentChar(line[start - 1])) continue;
      const size_t open = SkipSpaces(line, start + 13);
      if (open >= line.size() || line[open] != '<') continue;
      const size_t close = MatchAngle(line, open);
      if (close == std::string::npos) continue;
      const size_t np = SkipSpaces(line, close + 1);
      if (np >= line.size() || !IsIdentChar(line[np])) continue;
      const std::string param = ReadIdent(line, np);
      const size_t fq = SkipSpaces(line, np + param.size());
      const char follow = fq < line.size() ? line[fq] : '\0';
      if (follow != ',' && follow != ')' && follow != '=' && follow != '\0') {
        continue;
      }
      // Walk back over an optional `const`; the character before the type
      // must open a parameter (`(` or `,`), possibly on the previous line.
      size_t b = start;
      while (b > 0 && std::isspace(static_cast<unsigned char>(line[b - 1]))) {
        --b;
      }
      if (b >= 5 && line.compare(b - 5, 5, "const") == 0 &&
          (b == 5 || !IsIdentChar(line[b - 6]))) {
        b -= 5;
        while (b > 0 &&
               std::isspace(static_cast<unsigned char>(line[b - 1]))) {
          --b;
        }
      }
      char before = '\0';
      if (b > 0) {
        before = line[b - 1];
      } else {
        for (size_t pl = li; pl > 0; --pl) {
          const size_t e = file.code[pl - 1].find_last_not_of(" \t");
          if (e != std::string::npos) {
            before = file.code[pl - 1][e];
            break;
          }
        }
      }
      if (before != '(' && before != ',') continue;
      Emit(file, static_cast<int>(li) + 1, "sim-hot-path",
           "by-value std::function parameter `" + param +
               "` heap-allocates a copy per call on the simulator hot path; "
               "take it by rvalue reference (and move it) or use "
               "sim::EventCallback",
           out);
    }
  }

  // Half B: standard containers constructed inside function bodies — one
  // allocation (or more) per call on code that runs per event.
  const std::vector<Token> toks = Lex(file);
  const BracketMap brackets = PairBrackets(toks);
  for (const FunctionScope& fn : ExtractFunctions(toks, brackets)) {
    // Lambda bodies sit inside their enclosing function's token range, so
    // scanning only non-lambda scopes covers them without double-reporting.
    if (fn.is_lambda) continue;
    for (size_t i = fn.body_begin + 1; i + 1 < fn.body_end; ++i) {
      if (!toks[i].IsIdent()) continue;
      const bool container =
          toks[i].Is("vector") || toks[i].Is("deque") || toks[i].Is("map") ||
          toks[i].Is("set") || toks[i].Is("unordered_map") ||
          toks[i].Is("unordered_set");
      if (!container) continue;
      if (i < 2 || !toks[i - 1].Is("::") || !toks[i - 2].Is("std")) continue;
      // `static` / `constexpr` locals are constructed once, not per call.
      bool once = false;
      for (size_t j = i - 2; j > fn.body_begin; --j) {
        const Token& q = toks[j - 1];
        if (q.Is("const")) continue;
        once = q.Is("static") || q.Is("constexpr");
        break;
      }
      if (once) continue;
      if (!toks[i + 1].Is("<")) continue;
      // Match the template argument list over tokens (`>>` closes two
      // levels); statement punctuation means this was a comparison, not a
      // declaration.
      int depth = 0;
      size_t close = 0;
      for (size_t k = i + 1; k < fn.body_end; ++k) {
        const std::string& t = toks[k].text;
        if (t == "<") {
          ++depth;
        } else if (t == ">") {
          if (--depth == 0) {
            close = k;
            break;
          }
        } else if (t == ">>") {
          depth -= 2;
          if (depth <= 0) {
            close = k;
            break;
          }
        } else if (t == ";" || t == "{" || t == "}") {
          break;
        }
      }
      if (close == 0 || close + 2 >= fn.body_end) continue;
      // A declaration reads `std::vector<T> name` followed by an
      // initializer or `;`. Pointers, references, and nested type names
      // (`::iterator`) all miss this shape.
      const Token& name = toks[close + 1];
      if (!name.IsIdent()) continue;
      const std::string& after = toks[close + 2].text;
      if (after != ";" && after != "(" && after != "{" && after != "=") {
        continue;
      }
      Emit(file, toks[i].line, "sim-hot-path",
           "`std::" + toks[i].text + "` local `" + name.text +
               "` is constructed per call on the simulator hot path; hoist "
               "it into a reused member buffer, or add an allow comment "
               "stating why the cost is amortized",
           out);
    }
  }
}

void Checker::CheckFile(const SourceFile& file,
                        std::vector<Diagnostic>* out) const {
  const std::set<std::string> unordered = UnorderedNamesFor(file);
  CheckBannedApis(file, out);
  CheckUnorderedIteration(file, unordered, out);
  CheckHeaderHygiene(file, out);
  CheckUnboundedRetry(file, out);
  CheckSimHotPath(file, out);
  const FlowContext ctx{&result_names_, &fallible_names_, &void_names_,
                        &span_source_names_, &unordered};
  CheckFlowRules(file, ctx, out);
}

namespace {

/// shared-mutable-state: a mutable static in src/ is one variable for every
/// simulation the process runs, so what one run writes the next one reads.
void CheckSharedMutableState(const SymbolIndex& index, const FileMap& files,
                             std::vector<Diagnostic>* out) {
  for (const StaticVar& var : index.statics()) {
    if (var.is_const || !SrcScoped(var.file)) continue;
    EmitDiagnostic(*files.at(var.file), var.line, "shared-mutable-state",
                   "mutable " + std::string(StorageName(var.storage)) + " `" +
                       var.qualified +
                       "` is shared by every simulation in the process; make "
                       "it const, move it into the object that owns the run, "
                       "or justify with allow(shared-mutable-state)",
                   out);
  }
}

}  // namespace

std::vector<Diagnostic> Checker::CheckSources(
    const std::vector<std::pair<std::string, std::string>>& path_contents) {
  std::vector<SourceFile> files;
  files.reserve(path_contents.size());
  for (const auto& [path, contents] : path_contents) {
    files.push_back(Preprocess(path, contents));
  }
  // Every file is harvested and indexed before any rule runs, so the flow
  // rules see fallible names and span sources declared in other files.
  SymbolIndex index;
  for (const SourceFile& f : files) {
    CollectFallibleNames(f);
    CollectUnorderedNames(f);
    index.AddFile(f);
  }
  span_source_names_ = index.SpanSourceNames();

  std::vector<Diagnostic> diags;
  for (const SourceFile& f : files) CheckFile(f, &diags);

  const CallGraph graph = BuildCallGraph(index);
  FileMap file_map;
  for (const SourceFile& f : files) file_map[f.path] = &f;
  CheckTransitiveNondeterminism(index, graph, file_map, &diags);
  CheckRetryWrappers(index, graph, file_map, &diags);
  CheckSharedMutableState(index, file_map, &diags);

  std::sort(diags.begin(), diags.end());
  return diags;
}

std::vector<TreeFile> LoadTree(const std::string& root,
                               const std::vector<std::string>& dirs) {
  namespace fs = std::filesystem;
  std::vector<std::string> paths;
  for (const std::string& dir : dirs) {
    const fs::path base = fs::path(root) / dir;
    if (!fs::exists(base)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".h" && ext != ".hpp" && ext != ".cc" && ext != ".cpp") {
        continue;
      }
      // Lint-test fixtures violate the rules on purpose.
      if (entry.path().string().find("/fixtures/") != std::string::npos) {
        continue;
      }
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());

  std::vector<TreeFile> files;
  files.reserve(paths.size());
  for (const std::string& p : paths) {
    std::ifstream in(p);
    std::stringstream buf;
    buf << in.rdbuf();
    std::string rel = p;
    const std::string prefix = (fs::path(root) / "").string();
    if (rel.rfind(prefix, 0) == 0) rel = rel.substr(prefix.size());
    files.push_back(TreeFile{rel, buf.str()});
  }
  return files;
}

std::vector<Diagnostic> CheckTree(const std::string& root,
                                  const std::vector<std::string>& dirs) {
  std::vector<std::pair<std::string, std::string>> sources;
  for (TreeFile& f : LoadTree(root, dirs)) {
    sources.emplace_back(std::move(f.rel), std::move(f.contents));
  }
  Checker checker;
  return checker.CheckSources(sources);
}

std::string FormatDiagnostic(const Diagnostic& diag) {
  return diag.file + ":" + std::to_string(diag.line) + ": [" + diag.rule +
         "] " + diag.message;
}

}  // namespace skyrise::check
