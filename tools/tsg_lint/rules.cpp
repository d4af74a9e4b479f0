#include "tsg_lint/lint.h"

#include <algorithm>
#include <cstddef>
#include <map>
#include <string_view>

namespace tsg::lint {

namespace {

using Tokens = std::vector<Token>;

bool is_ident(const Token& t, std::string_view text) {
  return t.kind == TokKind::kIdentifier && t.text == text;
}
bool is_punct(const Token& t, std::string_view text) {
  return t.kind == TokKind::kPunct && t.text == text;
}

/// Index of the matching close for the open paren/bracket at `open`
/// (which must point at `(` or `[`), or tokens.size() when unbalanced.
std::size_t matching_close(const Tokens& toks, std::size_t open) {
  const std::string_view opener = toks[open].text;
  const std::string_view closer = opener == "(" ? ")" : "]";
  int depth = 0;
  for (std::size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != TokKind::kPunct) continue;
    if (toks[i].text == opener) ++depth;
    if (toks[i].text == closer && --depth == 0) return i;
  }
  return toks.size();
}

/// True when toks[i] is a `*` that reads as a binary multiply: the previous
/// token must be something a value expression can end with. Filters out
/// dereferences (`resize(*p)`) and pointer declarators (`T* p`): those have
/// `(`/`,`/ident-type contexts we cannot fully resolve, but requiring a
/// value-ish left operand removes the common false positives.
bool is_binary_multiply(const Tokens& toks, std::size_t i) {
  if (!is_punct(toks[i], "*")) return false;
  if (i == 0) return false;
  const Token& prev = toks[i - 1];
  if (prev.kind == TokKind::kIdentifier || prev.kind == TokKind::kNumber) return true;
  return is_punct(prev, ")") || is_punct(prev, "]");
}

bool region_has_unchecked_multiply(const Tokens& toks, std::size_t open,
                                   std::size_t close, int* mul_line) {
  bool has_mul = false;
  for (std::size_t i = open + 1; i < close; ++i) {
    if (toks[i].kind == TokKind::kIdentifier &&
        toks[i].text.substr(0, 8) == "checked_") {
      return false;  // the whole expression routes through a checked helper
    }
    if (!has_mul && is_binary_multiply(toks, i)) {
      has_mul = true;
      *mul_line = toks[i].line;
    }
  }
  return has_mul;
}

bool path_contains(const std::string& path, std::string_view needle) {
  return path.find(needle) != std::string::npos;
}

// ---------------------------------------------------------------------------
// raw-alloc: malloc/calloc/realloc calls and array-new outside the memory
// layer. Everything must go through MemoryTracker so the Fig. 9 budget
// accounting stays truthful.
// ---------------------------------------------------------------------------
void check_raw_alloc(const FileContext& file, std::vector<Diagnostic>& out) {
  if (path_contains(file.path, "src/common/memory.")) return;
  const Tokens& toks = file.lexed->tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier) continue;

    if (t.text == "malloc" || t.text == "calloc" || t.text == "realloc") {
      if (i + 1 >= toks.size() || !is_punct(toks[i + 1], "(")) continue;
      if (i > 0 && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->"))) {
        continue;  // member function of some unrelated type
      }
      out.push_back({"raw-alloc", file.path, t.line,
                     "call to " + std::string(t.text) +
                         "() bypasses MemoryTracker; allocate through "
                         "src/common/memory.h (tracked_vector / TrackedAllocator)"});
      continue;
    }

    if (t.text == "new") {
      if (i > 0 && is_ident(toks[i - 1], "operator")) continue;
      // Array new: a `[` shows up in the type part of the new-expression,
      // before the expression ends or an initializer starts.
      bool is_array = false;
      const std::size_t horizon = std::min(toks.size(), i + 24);
      for (std::size_t j = i + 1; j < horizon; ++j) {
        if (toks[j].kind != TokKind::kPunct) continue;
        const std::string_view p = toks[j].text;
        if (p == "[") {
          is_array = true;
          break;
        }
        if (p == "(" || p == "{" || p == ";" || p == "," || p == ")") break;
      }
      if (is_array) {
        out.push_back({"raw-alloc", file.path, t.line,
                       "array new[] bypasses MemoryTracker; use tracked_vector "
                       "from src/common/memory.h"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// unchecked-size-mul: a multiply feeding an allocation size must go through
// checked_mul/checked_size_mul (src/common/status.h) — tile-count products
// are exactly where n*16 or rows*cols overflows on pathological inputs.
// ---------------------------------------------------------------------------
void check_unchecked_size_mul(const FileContext& file, std::vector<Diagnostic>& out) {
  const Tokens& toks = file.lexed->tokens;
  auto scan_region = [&](std::size_t open, std::string_view what) {
    const std::size_t close = matching_close(toks, open);
    if (close >= toks.size()) return;
    int mul_line = 0;
    if (region_has_unchecked_multiply(toks, open, close, &mul_line)) {
      out.push_back({"unchecked-size-mul", file.path, mul_line,
                     "multiplication feeds the size of " + std::string(what) +
                         " without checked_mul/checked_size_mul "
                         "(src/common/status.h)"});
    }
  };

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier) continue;

    if ((t.text == "malloc" || t.text == "calloc" || t.text == "realloc") &&
        i + 1 < toks.size() && is_punct(toks[i + 1], "(")) {
      scan_region(i + 1, t.text);
      continue;
    }

    if ((t.text == "resize" || t.text == "reserve" || t.text == "assign") &&
        i + 1 < toks.size() && is_punct(toks[i + 1], "(") && i > 0 &&
        (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->"))) {
      scan_region(i + 1, t.text);
      continue;
    }

    if (t.text == "new") {
      const std::size_t horizon = std::min(toks.size(), i + 24);
      for (std::size_t j = i + 1; j < horizon; ++j) {
        if (toks[j].kind != TokKind::kPunct) continue;
        const std::string_view p = toks[j].text;
        if (p == "[") {
          scan_region(j, "new[]");
          break;
        }
        if (p == "(" || p == "{" || p == ";" || p == "," || p == ")") break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// discarded-status: a statement that is nothing but a call to a try_*
// function throws away its Status/Expected. The [[nodiscard]] annotations in
// src/common/status.h catch this at compile time when warnings are on; the
// lint keeps the gate independent of compiler flags.
// ---------------------------------------------------------------------------
void check_discarded_status(const FileContext& file, std::vector<Diagnostic>& out) {
  const Tokens& toks = file.lexed->tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    // Anchor at a statement start so `return try_x();`, `auto s = try_x();`
    // and `if (try_x())` never match: those consume the result.
    const bool at_start = i == 0 || is_punct(toks[i - 1], ";") ||
                          is_punct(toks[i - 1], "{") || is_punct(toks[i - 1], "}");
    if (!at_start) continue;
    if (toks[i].kind != TokKind::kIdentifier) continue;

    // Walk the qualified/member chain: ident ((:: | . | ->) ident)*.
    std::size_t j = i;
    while (j + 2 < toks.size() &&
           (is_punct(toks[j + 1], "::") || is_punct(toks[j + 1], ".") ||
            is_punct(toks[j + 1], "->")) &&
           toks[j + 2].kind == TokKind::kIdentifier) {
      j += 2;
    }
    if (toks[j].text.substr(0, 4) != "try_") continue;
    if (j + 1 >= toks.size() || !is_punct(toks[j + 1], "(")) continue;
    const std::size_t close = matching_close(toks, j + 1);
    if (close + 1 >= toks.size() || !is_punct(toks[close + 1], ";")) continue;

    out.push_back({"discarded-status", file.path, toks[j].line,
                   "result of " + std::string(toks[j].text) +
                       "() is discarded; check the Status/Expected or call "
                       ".value()"});
  }
}

// ---------------------------------------------------------------------------
// throw-in-parallel: a throw inside a parallel_for body in src/core escapes
// through the thread team. ExceptionTrap only rescues exceptions funneled
// through it, and the std::thread backend would call std::terminate; the
// core pipeline reports errors via Status instead.
// ---------------------------------------------------------------------------
void check_throw_in_parallel(const FileContext& file, std::vector<Diagnostic>& out) {
  if (!path_contains(file.path, "src/core/")) return;
  const Tokens& toks = file.lexed->tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier) continue;
    if (t.text != "parallel_for" && t.text != "parallel_for_static" &&
        t.text != "parallel_reduce") {
      continue;
    }
    if (!is_punct(toks[i + 1], "(")) continue;
    const std::size_t close = matching_close(toks, i + 1);
    for (std::size_t j = i + 2; j < close; ++j) {
      if (is_ident(toks[j], "throw")) {
        out.push_back({"throw-in-parallel", file.path, toks[j].line,
                       "throw inside a " + std::string(t.text) +
                           " body; report errors via Status (see "
                           "src/common/status.h) — exceptions do not cross "
                           "the thread team"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// trace-span-pairing: every TSG_TRACE_BEGIN("name") in a file needs a
// matching TSG_TRACE_END("name"), or the Chrome trace viewer nests every
// later span under the unclosed one.
// ---------------------------------------------------------------------------
void check_trace_span_pairing(const FileContext& file, std::vector<Diagnostic>& out) {
  const Tokens& toks = file.lexed->tokens;
  struct SpanCount {
    int begins = 0;
    int ends = 0;
    int line = 0;  ///< line of the first sighting, for the report
  };
  std::map<std::string, SpanCount> spans;

  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier) continue;
    const bool is_begin = t.text == "TSG_TRACE_BEGIN";
    const bool is_end = t.text == "TSG_TRACE_END";
    if (!is_begin && !is_end) continue;
    if (!is_punct(toks[i + 1], "(")) continue;
    const Token& arg = toks[i + 2];
    if (arg.kind != TokKind::kString) {
      out.push_back({"trace-span-pairing", file.path, t.line,
                     std::string(t.text) +
                         " span name must be a string literal so begin/end "
                         "pairing is checkable"});
      continue;
    }
    SpanCount& sc = spans[std::string(arg.text)];
    if (sc.line == 0) sc.line = t.line;
    (is_begin ? sc.begins : sc.ends)++;
  }

  for (const auto& [name, sc] : spans) {
    if (sc.begins == sc.ends) continue;
    out.push_back({"trace-span-pairing", file.path, sc.line,
                   "span " + name + " has " + std::to_string(sc.begins) +
                       " TSG_TRACE_BEGIN but " + std::to_string(sc.ends) +
                       " TSG_TRACE_END in this file"});
  }
}

// ---------------------------------------------------------------------------
// unbounded-wait: a naked future .get() / .wait(), or a condition-variable
// wait without a predicate, blocks forever when the completing side dies —
// exactly the failure the service's watchdog and deadline machinery exist
// to make impossible. Scoped to src/service and tests/, where every wait
// must be bounded (wait_for + deadline, or the tests' await() helper) or
// carry an explicit `tsg-lint: allow(unbounded-wait)` rationale.
// ---------------------------------------------------------------------------
void check_unbounded_wait(const FileContext& file, std::vector<Diagnostic>& out) {
  if (!path_contains(file.path, "src/service") && !path_contains(file.path, "tests/")) {
    return;
  }
  const Tokens& toks = file.lexed->tokens;
  for (std::size_t i = 1; i + 1 < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier) continue;
    // Member calls only: `x.get()` / `cv.wait(lock)`. Free functions named
    // get/wait are somebody else's API.
    if (!is_punct(toks[i - 1], ".") && !is_punct(toks[i - 1], "->")) continue;
    if (!is_punct(toks[i + 1], "(")) continue;

    if (t.text == "get") {
      // Zero-argument .get(): on a future this is an unbounded block. (A
      // smart pointer's .get() in these directories trips this too — the
      // suppression comment is the annotated escape hatch.)
      if (is_punct(toks[i + 2], ")")) {
        out.push_back({"unbounded-wait", file.path, t.line,
                       "naked .get() waits forever if the worker never resolves the "
                       "future; bound it (wait_for + deadline, tests' await()) or "
                       "annotate with tsg-lint: allow(unbounded-wait)"});
      }
      continue;
    }

    if (t.text == "wait") {
      // cv.wait(lock) re-sleeps on spurious wake-ups but never times out and
      // never re-checks state; demand wait(lock, predicate) (or the *_for /
      // *_until variants, which this rule does not match).
      const std::size_t close = matching_close(toks, i + 1);
      if (close >= toks.size()) continue;
      int depth = 0;
      bool has_predicate = false;
      for (std::size_t j = i + 1; j < close && !has_predicate; ++j) {
        if (toks[j].kind != TokKind::kPunct) continue;
        const std::string_view p = toks[j].text;
        if (p == "(" || p == "[" || p == "{") ++depth;
        if (p == ")" || p == "]" || p == "}") --depth;
        if (p == "," && depth == 1) has_predicate = true;
      }
      if (!has_predicate) {
        out.push_back({"unbounded-wait", file.path, t.line,
                       ".wait() without a predicate (or a *_for/*_until bound) can "
                       "block forever; pass the condition as a predicate or wait "
                       "with a timeout"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// banned-fn: non-reentrant / unbounded C functions. rand() breaks run
// reproducibility (matrices must come from seeded generators), strtok keeps
// hidden global state across parallel sections, sprintf has no bound.
// ---------------------------------------------------------------------------
void check_banned_fn(const FileContext& file, std::vector<Diagnostic>& out) {
  static const std::map<std::string_view, std::string_view> kBanned = {
      {"rand", "use a seeded std::mt19937 (reproducible runs)"},
      {"srand", "use a seeded std::mt19937 (reproducible runs)"},
      {"strtok", "keeps hidden global state; not reentrant across parallel sections"},
      {"sprintf", "unbounded write; use snprintf or std::string formatting"},
      {"vsprintf", "unbounded write; use vsnprintf"},
      {"gets", "unbounded read; removed from the language"},
  };
  const Tokens& toks = file.lexed->tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier) continue;
    const auto it = kBanned.find(t.text);
    if (it == kBanned.end()) continue;
    if (!is_punct(toks[i + 1], "(")) continue;
    if (i > 0 && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->"))) {
      continue;  // member function of some unrelated type
    }
    out.push_back({"banned-fn", file.path, t.line,
                   std::string(t.text) + "() is banned: " + std::string(it->second)});
  }
}

// ---------------------------------------------------------------------------
// raw-log: direct printf/fprintf/std::cerr/std::cout in src/ outside the
// logger itself. Library diagnostics must go through the structured logger
// (src/obs/log.h) so every record is JSON, leveled, rate-limited, and
// stamped with the ambient request context; a raw stream write is invisible
// to the flight recorder and unjoinable with the trace. CLI/bench/tools/
// tests keep direct streams — human-facing output is their job.
// ---------------------------------------------------------------------------
void check_raw_log(const FileContext& file, std::vector<Diagnostic>& out) {
  // Scope: library sources only. Paths are repo-relative (the lint_tree
  // target runs `tsg_lint src tools tests` from the source root).
  if (file.path.rfind("src/", 0) != 0) return;
  if (path_contains(file.path, "src/obs/log.")) return;  // the sink itself
  const Tokens& toks = file.lexed->tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != TokKind::kIdentifier) continue;

    if (t.text == "printf" || t.text == "fprintf" || t.text == "vprintf" ||
        t.text == "vfprintf" || t.text == "puts" || t.text == "fputs") {
      if (i + 1 >= toks.size() || !is_punct(toks[i + 1], "(")) continue;
      if (i > 0 && (is_punct(toks[i - 1], ".") || is_punct(toks[i - 1], "->"))) {
        continue;  // member function of some unrelated type
      }
      out.push_back({"raw-log", file.path, t.line,
                     "call to " + std::string(t.text) +
                         "() in library code; route diagnostics through the "
                         "structured logger (TSG_LOG_* in src/obs/log.h)"});
      continue;
    }

    if (t.text == "cerr" || t.text == "cout") {
      out.push_back({"raw-log", file.path, t.line,
                     "std::" + std::string(t.text) +
                         " in library code; route diagnostics through the "
                         "structured logger (TSG_LOG_* in src/obs/log.h)"});
    }
  }
}

}  // namespace

const std::vector<Rule>& rule_catalogue() {
  static const std::vector<Rule> kRules = {
      {"raw-alloc",
       "malloc/calloc/realloc and new[] outside src/common/memory.*",
       check_raw_alloc},
      {"unchecked-size-mul",
       "multiplication feeding an allocation size without checked_mul",
       check_unchecked_size_mul},
      {"discarded-status",
       "statement-level try_* call whose Status/Expected result is dropped",
       check_discarded_status},
      {"throw-in-parallel",
       "throw lexically inside a parallel_for body in src/core",
       check_throw_in_parallel},
      {"trace-span-pairing",
       "TSG_TRACE_BEGIN/TSG_TRACE_END per-file, per-name balance",
       check_trace_span_pairing},
      {"unbounded-wait",
       "naked future .get()/.wait() or predicate-less cv wait in src/service and tests",
       check_unbounded_wait},
      {"banned-fn",
       "rand/srand/strtok/sprintf/vsprintf/gets",
       check_banned_fn},
      {"raw-log",
       "direct printf/fprintf/std::cerr/std::cout in src/ outside src/obs/log.*",
       check_raw_log},
  };
  return kRules;
}

std::vector<Diagnostic> lint_source(const std::string& path, std::string_view content,
                                    const Options& options, LintStats* stats) {
  const LexedFile lexed = lex(content);
  FileContext file;
  file.path = path;
  file.lexed = &lexed;

  std::vector<Diagnostic> raw;
  for (const Rule& rule : rule_catalogue()) {
    if (!options.only_rules.empty() && options.only_rules.count(rule.name) == 0) {
      continue;
    }
    rule.check(file, raw);
  }

  std::vector<Diagnostic> kept;
  kept.reserve(raw.size());
  for (Diagnostic& d : raw) {
    if (is_suppressed(lexed, d.rule, d.line)) {
      if (stats != nullptr) ++stats->suppressed;
      continue;
    }
    kept.push_back(std::move(d));
  }
  if (stats != nullptr) ++stats->files;
  return kept;
}

}  // namespace tsg::lint
