// Tests for the tsg-lint rule engine (tools/tsg_lint). Every rule is
// exercised with at least one firing fixture and one clean fixture, and the
// suppression comments are covered as a mechanism of their own.
//
// Fixtures live in raw strings: the lexer never tokenizes string contents,
// so the violations quoted here cannot fire on this file itself when
// `tsg_lint tests` runs over the tree.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "json_checker.h"
#include "tsg_lint/baseline.h"
#include "tsg_lint/include_graph.h"
#include "tsg_lint/lint.h"
#include "tsg_lint/project.h"
#include "tsg_lint/sarif.h"

namespace {

using tsg::lint::Diagnostic;
using tsg::lint::FileInput;
using tsg::lint::Options;

std::vector<Diagnostic> run(const std::string& path, std::string_view src,
                            tsg::lint::LintStats* stats = nullptr) {
  return tsg::lint::lint_source(path, src, Options{}, stats);
}

/// Project-mode driver; jobs=1 keeps fixture runs deterministic.
tsg::lint::ProjectResult run_project(std::vector<FileInput> files) {
  return tsg::lint::lint_project(std::move(files), Options{}, 1);
}

int count_rule(const std::vector<Diagnostic>& diags, std::string_view rule) {
  return static_cast<int>(std::count_if(
      diags.begin(), diags.end(), [&](const Diagnostic& d) { return d.rule == rule; }));
}

// ---------------------------------------------------------------------------
// raw-alloc
// ---------------------------------------------------------------------------

TEST(RawAlloc, FiresOnMallocAndArrayNew) {
  const auto diags = run("src/core/foo.cpp", R"(
    void f(std::size_t n) {
      void* p = malloc(n);
      int* a = new int[8];
    }
  )");
  EXPECT_EQ(count_rule(diags, "raw-alloc"), 2);
  EXPECT_EQ(diags[0].line, 3);
}

TEST(RawAlloc, CleanOnTrackedAllocationAndScalarNew) {
  const auto diags = run("src/core/foo.cpp", R"(
    void f(std::size_t n) {
      tsg::tracked_vector<int> v(n);
      auto w = std::make_unique<Widget>();
      auto* s = new Widget(n);
    }
  )");
  EXPECT_EQ(count_rule(diags, "raw-alloc"), 0);
}

TEST(RawAlloc, MemoryLayerIsExempt) {
  const std::string_view src = R"(
    void* raw = malloc(bytes);
  )";
  EXPECT_EQ(count_rule(run("src/common/memory.cpp", src), "raw-alloc"), 0);
  EXPECT_EQ(count_rule(run("src/core/other.cpp", src), "raw-alloc"), 1);
}

TEST(RawAlloc, MemberNamedMallocIsNotACall) {
  const auto diags = run("a.cpp", R"(
    arena.malloc(n);
    pool->calloc(a, b);
  )");
  EXPECT_EQ(count_rule(diags, "raw-alloc"), 0);
}

// ---------------------------------------------------------------------------
// unchecked-size-mul
// ---------------------------------------------------------------------------

TEST(UncheckedSizeMul, FiresOnResizeProduct) {
  const auto diags = run("a.cpp", R"(
    void f(std::vector<int>& v, std::size_t rows, std::size_t cols) {
      v.resize(rows * cols);
    }
  )");
  ASSERT_EQ(count_rule(diags, "unchecked-size-mul"), 1);
  EXPECT_EQ(diags[0].line, 3);
}

TEST(UncheckedSizeMul, FiresInsideMallocAndNewBrackets) {
  // The allocation sites themselves also trip raw-alloc; count only the
  // size rule here.
  const auto diags = run("src/common/memory.cpp", R"(
    void* p = malloc(n * sizeof(int));
    int* a = new int[rows * cols];
  )");
  EXPECT_EQ(count_rule(diags, "unchecked-size-mul"), 2);
}

TEST(UncheckedSizeMul, CleanWhenRoutedThroughCheckedHelpers) {
  const auto diags = run("a.cpp", R"(
    v.resize(tsg::checked_size_mul(rows, cols));
    v.reserve(n);
    w.assign(count, 0);
  )");
  EXPECT_EQ(count_rule(diags, "unchecked-size-mul"), 0);
}

TEST(UncheckedSizeMul, DereferenceAndCompoundAssignAreNotMultiplies) {
  const auto diags = run("a.cpp", R"(
    v.resize(*size_ptr);
    v.resize(n *= 2);
  )");
  EXPECT_EQ(count_rule(diags, "unchecked-size-mul"), 0);
}

// ---------------------------------------------------------------------------
// discarded-status
// ---------------------------------------------------------------------------

TEST(DiscardedStatus, FiresOnBareTryCall) {
  const auto diags = run("a.cpp", R"(
    void f() {
      try_reserve(buf, n);
      ctx.try_run(request);
    }
  )");
  EXPECT_EQ(count_rule(diags, "discarded-status"), 2);
}

TEST(DiscardedStatus, CleanWhenResultIsConsumed) {
  const auto diags = run("a.cpp", R"(
    tsg::Status g() {
      auto st = try_reserve(buf, n);
      if (!try_convert(m).ok()) return fail();
      return try_run(request);
    }
  )");
  EXPECT_EQ(count_rule(diags, "discarded-status"), 0);
}

// ---------------------------------------------------------------------------
// throw-in-parallel
// ---------------------------------------------------------------------------

TEST(ThrowInParallel, FiresInsideParallelForBodyInCore) {
  const auto diags = run("src/core/step9.cpp", R"(
    void f() {
      tsg::parallel_for(index_t{0}, n, [&](index_t i) {
        if (bad(i)) throw std::runtime_error("boom");
      });
    }
  )");
  ASSERT_EQ(count_rule(diags, "throw-in-parallel"), 1);
  EXPECT_EQ(diags[0].line, 4);
}

TEST(ThrowInParallel, CleanOutsideBodyAndOutsideCore) {
  // A throw before/after the parallel region is fine...
  const auto in_core = run("src/core/step9.cpp", R"(
    void f() {
      if (n < 0) throw std::invalid_argument("n");
      tsg::parallel_for(index_t{0}, n, [&](index_t i) { work(i); });
    }
  )");
  EXPECT_EQ(count_rule(in_core, "throw-in-parallel"), 0);

  // ...and the rule is scoped to src/core: tests may throw wherever.
  const auto in_tests = run("tests/test_x.cpp", R"(
    tsg::parallel_for(0, n, [&](int i) { throw std::runtime_error("x"); });
  )");
  EXPECT_EQ(count_rule(in_tests, "throw-in-parallel"), 0);
}

// ---------------------------------------------------------------------------
// trace-span-pairing
// ---------------------------------------------------------------------------

TEST(TraceSpanPairing, FiresOnUnbalancedSpan) {
  const auto diags = run("a.cpp", R"(
    void f() {
      TSG_TRACE_BEGIN("step2");
      work();
    }
  )");
  EXPECT_EQ(count_rule(diags, "trace-span-pairing"), 1);
}

TEST(TraceSpanPairing, CleanOnBalancedSpans) {
  const auto diags = run("a.cpp", R"(
    void f() {
      TSG_TRACE_BEGIN("step2");
      TSG_TRACE_BEGIN("probe", nnz);
      work();
      TSG_TRACE_END("probe");
      TSG_TRACE_END("step2");
    }
  )");
  EXPECT_EQ(count_rule(diags, "trace-span-pairing"), 0);
}

TEST(TraceSpanPairing, NonLiteralNameIsItsOwnFinding) {
  const auto diags = run("a.cpp", R"(
    void f(const char* name) {
      TSG_TRACE_BEGIN(name);
      TSG_TRACE_END(name);
    }
  )");
  EXPECT_EQ(count_rule(diags, "trace-span-pairing"), 2);
}

// ---------------------------------------------------------------------------
// unbounded-wait
// ---------------------------------------------------------------------------

TEST(UnboundedWait, FiresOnNakedGetAndPredicatelessWait) {
  const auto diags = run("src/service/foo.cpp", R"(
    void f(std::future<int>& fut, std::condition_variable& cv,
           std::unique_lock<std::mutex>& lk) {
      int v = fut.get();
      cv.wait(lk);
      fut.wait();
    }
  )");
  EXPECT_EQ(count_rule(diags, "unbounded-wait"), 3);
  EXPECT_EQ(diags[0].line, 4);
}

TEST(UnboundedWait, CleanOnBoundedAndPredicatedWaits) {
  const auto diags = run("tests/test_foo.cpp", R"(
    void f(std::future<int>& fut, std::condition_variable& cv,
           std::unique_lock<std::mutex>& lk, bool& done) {
      (void)fut.wait_for(std::chrono::seconds(1));
      cv.wait(lk, [&] { return done; });
      cv.wait_until(lk, deadline);
      int v = test::await(fut);
    }
  )");
  EXPECT_EQ(count_rule(diags, "unbounded-wait"), 0);
}

TEST(UnboundedWait, ScopedToServiceAndTests) {
  // The rule is a service-layer liveness invariant: the same naked get() in
  // src/core (where futures do not appear) must not fire.
  const std::string_view src = R"(
    int v = fut.get();
  )";
  EXPECT_EQ(count_rule(run("src/core/foo.cpp", src), "unbounded-wait"), 0);
  EXPECT_EQ(count_rule(run("src/service/foo.cpp", src), "unbounded-wait"), 1);
  EXPECT_EQ(count_rule(run("tests/foo.cpp", src), "unbounded-wait"), 1);
}

TEST(UnboundedWait, SuppressibleWithRationale) {
  const auto diags = run("src/service/foo.cpp", R"(
    int v = fut.get();  // tsg-lint: allow(unbounded-wait) -- readiness checked above
  )");
  EXPECT_EQ(count_rule(diags, "unbounded-wait"), 0);
}

// ---------------------------------------------------------------------------
// banned-fn
// ---------------------------------------------------------------------------

TEST(BannedFn, FiresOnRandAndSprintf) {
  const auto diags = run("a.cpp", R"(
    int f(char* out) {
      sprintf(out, "%d", 42);
      return rand();
    }
  )");
  EXPECT_EQ(count_rule(diags, "banned-fn"), 2);
}

TEST(BannedFn, CleanOnSafeAlternativesAndMembers) {
  const auto diags = run("a.cpp", R"(
    int f(char* out, std::size_t n, Rng& gen) {
      snprintf(out, n, "%d", 42);
      return gen.rand();
    }
  )");
  EXPECT_EQ(count_rule(diags, "banned-fn"), 0);
}

// ---------------------------------------------------------------------------
// raw-log
// ---------------------------------------------------------------------------

TEST(RawLog, FiresOnPrintfFamilyAndStreamsInLibraryCode) {
  const auto diags = run("src/core/foo.cpp", R"(
    void f(int n) {
      fprintf(stderr, "n=%d\n", n);
      std::cerr << "oops" << std::endl;
    }
  )");
  ASSERT_EQ(count_rule(diags, "raw-log"), 2);
  EXPECT_EQ(diags[0].line, 3);
}

TEST(RawLog, LoggerSinkItselfIsExempt) {
  const std::string_view src = R"(
    void flush_line(const std::string& line) {
      fprintf(out, "%s\n", line.c_str());
      if (!out) std::cerr << line << "\n";
    }
  )";
  EXPECT_EQ(count_rule(run("src/obs/log.cpp", src), "raw-log"), 0);
  EXPECT_EQ(count_rule(run("src/obs/trace.cpp", src), "raw-log"), 2);
}

TEST(RawLog, ScopedToLibrarySources) {
  // CLI, benches, tools, and tests talk to humans on stdout/stderr; only
  // src/ must route diagnostics through the structured logger.
  const std::string_view src = R"(
    printf("rows=%d\n", rows);
    std::cout << "done\n";
  )";
  EXPECT_EQ(count_rule(run("tools/tilespgemm_cli.cpp", src), "raw-log"), 0);
  EXPECT_EQ(count_rule(run("bench/bench_fig10.cpp", src), "raw-log"), 0);
  EXPECT_EQ(count_rule(run("tests/test_foo.cpp", src), "raw-log"), 0);
  EXPECT_EQ(count_rule(run("src/service/foo.cpp", src), "raw-log"), 2);
}

TEST(RawLog, CleanOnBoundedFormattersAndMembers) {
  const auto diags = run("src/core/foo.cpp", R"(
    void f(char* buf, std::size_t n, Writer& w) {
      snprintf(buf, n, "%d", 42);
      w.printf("%d", 42);
      sink->fprintf(fmt);
    }
  )");
  EXPECT_EQ(count_rule(diags, "raw-log"), 0);
}

// ---------------------------------------------------------------------------
// Suppression mechanism
// ---------------------------------------------------------------------------

TEST(Suppression, TrailingCommentSilencesTheLine) {
  tsg::lint::LintStats stats;
  const auto diags = run("a.cpp", R"(
    int x = rand();  // tsg-lint: allow(banned-fn) -- fixture, not product code
  )",
                         &stats);
  EXPECT_EQ(count_rule(diags, "banned-fn"), 0);
  EXPECT_EQ(stats.suppressed, 1);
}

TEST(Suppression, CommentAboveSilencesTheNextLine) {
  const auto diags = run("a.cpp", R"(
    // tsg-lint: allow(banned-fn)
    int x = rand();
  )");
  EXPECT_EQ(count_rule(diags, "banned-fn"), 0);
}

TEST(Suppression, DoesNotLeakToOtherLinesOrRules) {
  const auto diags = run("a.cpp", R"(
    // tsg-lint: allow(banned-fn)
    int x = rand();
    int y = rand();
  )");
  EXPECT_EQ(count_rule(diags, "banned-fn"), 1);

  const auto wrong_rule = run("a.cpp", R"(
    int x = rand();  // tsg-lint: allow(raw-alloc)
  )");
  EXPECT_EQ(count_rule(wrong_rule, "banned-fn"), 1);
}

TEST(Suppression, WildcardAndListForms) {
  const auto diags = run("a.cpp", R"(
    int x = rand();  // tsg-lint: allow(*)
    v.resize(a * b);  // tsg-lint: allow(unchecked-size-mul, banned-fn)
  )");
  EXPECT_TRUE(diags.empty());
}

TEST(Suppression, AllowFileCoversTheWholeFile) {
  const auto diags = run("a.cpp", R"(
    // tsg-lint: allow-file(banned-fn)
    int f() { return rand(); }
    int g() { return rand(); }
  )");
  EXPECT_EQ(count_rule(diags, "banned-fn"), 0);
}

// ---------------------------------------------------------------------------
// Engine / lexer behaviour
// ---------------------------------------------------------------------------

TEST(Engine, ViolationsInCommentsAndStringsDoNotFire) {
  const auto diags = run("a.cpp",
                         "// int x = rand();\n"
                         "/* void* p = malloc(n); */\n"
                         "const char* doc = \"never call sprintf(buf, fmt)\";\n");
  EXPECT_TRUE(diags.empty());
}

TEST(Engine, PreprocessorLinesAreInvisible) {
  // The trace macro *definitions* (and any #if'd-out branch) must not count
  // as span begins/ends.
  const auto diags = run("a.cpp", R"(
#define MY_SPAN() TSG_TRACE_BEGIN("x")
#define MY_SPAN_DONE() TSG_TRACE_END("y")
  )");
  EXPECT_TRUE(diags.empty());
}

TEST(Engine, OnlyRulesFilterRestrictsTheRun) {
  Options only;
  only.only_rules.insert("banned-fn");
  const auto diags = tsg::lint::lint_source("a.cpp", R"(
    void* p = malloc(rand());
  )",
                                            only);
  EXPECT_EQ(count_rule(diags, "banned-fn"), 1);
  EXPECT_EQ(count_rule(diags, "raw-alloc"), 0);
}

TEST(Engine, RuleCatalogueNamesAreUniqueAndStable) {
  const auto& rules = tsg::lint::rule_catalogue();
  ASSERT_EQ(rules.size(), 8u);
  std::vector<std::string> names;
  names.reserve(rules.size());
  for (const auto& r : rules) names.push_back(r.name);
  auto sorted = names;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "raw-alloc"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "trace-span-pairing"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "unbounded-wait"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "raw-log"), names.end());
}

TEST(Engine, AllRuleInfoCoversEveryRuleTier) {
  // 8 per-file + 3 semantic + 2 graph rules; names unique across tiers.
  const auto info = tsg::lint::all_rule_info();
  ASSERT_EQ(info.size(), 13u);
  std::vector<std::string> names;
  names.reserve(info.size());
  for (const auto& r : info) names.push_back(r.name);
  auto sorted = names;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end());
  for (const char* expected : {"cancel-poll", "scope-pairing", "expected-flow",
                               "include-cycle", "layer-violation"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end()) << expected;
  }
}

// ---------------------------------------------------------------------------
// Lexer regressions: raw strings, digit separators, spliced comments
// ---------------------------------------------------------------------------

TEST(Lexer, RawStringContentsAreNeverTokenized) {
  const auto diags = run("a.cpp", R"fix(
    const char* doc = R"(calls rand() and sprintf(buf, fmt))";
    const char* sql = R"sql(select rand() from t)sql";
  )fix");
  EXPECT_TRUE(diags.empty());
}

TEST(Lexer, CodeAfterRawStringStillLints) {
  const auto diags = run("a.cpp", R"fix(
    const char* doc = R"x(harmless)x";
    int n = rand();
  )fix");
  EXPECT_EQ(count_rule(diags, "banned-fn"), 1);
}

TEST(Lexer, MalformedRawDelimiterDoesNotSwallowTheFile) {
  // A d-char-seq longer than 16 characters is ill-formed, so this is not a
  // raw string; the old scanner ran to EOF looking for a closer and
  // silenced every rule after it. The `R` falls out as an identifier, the
  // quote scans as an ordinary string, and later code still lints.
  const auto diags = run("a.cpp",
                         "auto s = R\"aaaaaaaaaaaaaaaaa( looks-raw )\";\n"
                         "int n = rand();\n");
  EXPECT_EQ(count_rule(diags, "banned-fn"), 1);
}

TEST(Lexer, DigitSeparatorsStayInsideTheNumber) {
  const auto diags = run("a.cpp", R"(
    const int big = 1'000'000;
    int n = rand();
  )");
  EXPECT_EQ(count_rule(diags, "banned-fn"), 1);
}

TEST(Lexer, QuoteAfterNumberOpensACharLiteral) {
  // `memchr(s, '0', 1)`-style code right after a numeric token: the quote
  // must not be folded into the number (the old lexer then mis-paired every
  // later literal). The multiply inside resize() still fires.
  const auto diags = run("a.cpp", R"(
    f(1, '0');
    v.resize(a * b);
  )");
  EXPECT_EQ(count_rule(diags, "unchecked-size-mul"), 1);
}

TEST(Lexer, BackslashSplicedLineCommentSwallowsTheNextLine) {
  // Phase-2 line splicing runs before comment removal: the second line is
  // still comment, the third is code.
  const auto diags = run("a.cpp",
                         "// this comment continues \\\n"
                         "int swallowed = rand();\n"
                         "int live = rand();\n");
  ASSERT_EQ(count_rule(diags, "banned-fn"), 1);
  EXPECT_EQ(diags[0].line, 3);
}

// ---------------------------------------------------------------------------
// cancel-poll (semantic, index-driven)
// ---------------------------------------------------------------------------

TEST(CancelPoll, FiresOnTileLoopWithoutPoll) {
  auto result = run_project({{"src/core/kernel.cpp", R"(
    void f(Ws& ws, offset_t ntiles) {
      parallel_for(offset_t{0}, ntiles, [&](offset_t t) {
        work(t);
      });
    }
  )"}});
  ASSERT_EQ(count_rule(result.diagnostics, "cancel-poll"), 1);
  EXPECT_EQ(result.diagnostics[0].line, 3);
}

TEST(CancelPoll, CleanWithDirectStridedPoll) {
  auto result = run_project({{"src/core/kernel.cpp", R"(
    void f(Ws& ws, offset_t ntiles) {
      parallel_for(offset_t{0}, ntiles, [&](offset_t t) {
        if ((t & 63) == 0) {
          ws.cancel.note_progress();
          if (ws.cancel.should_stop()) return;
        }
        work(t);
      });
    }
  )"}});
  EXPECT_EQ(count_rule(result.diagnostics, "cancel-poll"), 0);
}

TEST(CancelPoll, PollThroughCrossFileHelperSatisfiesTheRule) {
  // The helper polls; the index's reachability fixpoint lets the kernel's
  // loop satisfy the rule by calling it — this is the cross-TU part.
  auto result = run_project({
      {"src/core/kernel.cpp", R"(
        void f(Ws& ws, offset_t ntiles) {
          parallel_for(offset_t{0}, ntiles, [&](offset_t t) {
            poll_and_work(ws, t);
          });
        }
      )"},
      {"src/core/helpers.cpp", R"(
        void poll_and_work(Ws& ws, offset_t t) {
          ws.cancel.note_progress();
          if (ws.cancel.should_stop()) return;
          work(t);
        }
      )"},
  });
  EXPECT_EQ(count_rule(result.diagnostics, "cancel-poll"), 0);
}

TEST(CancelPoll, FiresOnChunkLoopWithoutPollAndScopedToCore) {
  const std::string_view src = R"(
    void drain(Ctx& ctx, std::size_t nchunks) {
      for (std::size_t chunk = 0; chunk < nchunks; ++chunk) {
        submit_one(chunk);
      }
    }
  )";
  auto in_core = run_project({{"src/core/pipeline.cpp", std::string(src)}});
  EXPECT_EQ(count_rule(in_core.diagnostics, "cancel-poll"), 1);

  // Same code outside src/core is out of the rule's scope.
  auto in_service = run_project({{"src/service/pipeline.cpp", std::string(src)}});
  EXPECT_EQ(count_rule(in_service.diagnostics, "cancel-poll"), 0);
}

TEST(CancelPoll, ChunkLoopCleanWithPerChunkCheck) {
  auto result = run_project({{"src/core/pipeline.cpp", R"(
    void drain(Ctx& ctx, std::size_t nchunks) {
      for (std::size_t chunk = 0; chunk < nchunks; ++chunk) {
        check_cancelled();
        submit_one(chunk);
      }
    }
  )"}});
  EXPECT_EQ(count_rule(result.diagnostics, "cancel-poll"), 0);
}

TEST(CancelPoll, LoopsOverNonTileRangesAreOutOfScope) {
  auto result = run_project({{"src/core/kernel.cpp", R"(
    void f(const Matrix& a) {
      parallel_for(index_t{0}, a.tile_rows, [&](index_t tr) {
        work(tr);
      });
    }
  )"}});
  EXPECT_EQ(count_rule(result.diagnostics, "cancel-poll"), 0);
}

// ---------------------------------------------------------------------------
// scope-pairing (semantic)
// ---------------------------------------------------------------------------

TEST(ScopePairing, FiresOnDirectFaultPlanCalls) {
  auto result = run_project({{"tests/test_x.cpp", R"(
    void f(FaultPlan plan) {
      MemoryTracker::instance().set_fault_plan(plan);
      run();
      MemoryTracker::instance().clear_fault_plan();
    }
  )"}});
  EXPECT_EQ(count_rule(result.diagnostics, "scope-pairing"), 2);
}

TEST(ScopePairing, MemoryLayerAndRaiiUseAreClean) {
  // The scope type's own implementation calls the pair; user code holding a
  // FaultInjectionScope never spells the calls at all.
  auto impl = run_project({{"src/common/memory.h", R"(
    class FaultInjectionScope {
     public:
      explicit FaultInjectionScope(const FaultPlan& plan) {
        MemoryTracker::instance().set_fault_plan(plan);
      }
      ~FaultInjectionScope() { MemoryTracker::instance().clear_fault_plan(); }
    };
  )"}});
  EXPECT_EQ(count_rule(impl.diagnostics, "scope-pairing"), 0);

  auto user = run_project({{"tests/test_x.cpp", R"(
    void f(FaultPlan plan) {
      FaultInjectionScope scope(plan);
      run();
    }
  )"}});
  EXPECT_EQ(count_rule(user.diagnostics, "scope-pairing"), 0);
}

TEST(ScopePairing, FiresOnChaosEngineArmOutsideItsModule) {
  auto result = run_project({{"bench/bench_chaos.cpp", R"(
    void f(const ChaosPlan& plan) {
      ChaosEngine::instance().arm(plan);
      run();
      ChaosEngine::instance().disarm();
    }
  )"}});
  EXPECT_EQ(count_rule(result.diagnostics, "scope-pairing"), 2);

  auto inside = run_project({{"src/chaos/chaos.cpp", R"(
    void ChaosScope::install(const ChaosPlan& plan) { ChaosEngine::instance().arm(plan); }
  )"}});
  EXPECT_EQ(count_rule(inside.diagnostics, "scope-pairing"), 0);
}

TEST(ScopePairing, FiresOnDirectRequestContextAssignment) {
  auto result = run_project({{"src/service/worker.cpp", R"(
    void f(const RequestContext& ctx) {
      detail::t_request = ctx;
    }
  )"}});
  EXPECT_EQ(count_rule(result.diagnostics, "scope-pairing"), 1);
}

TEST(ScopePairing, ManualMutexLockFiresButGuardReceiversAreExempt) {
  auto manual = run_project({{"src/service/worker.cpp", R"(
    void f() {
      mu_.lock();
      state_ += 1;
      mu_.unlock();
    }
  )"}});
  EXPECT_EQ(count_rule(manual.diagnostics, "scope-pairing"), 2);

  auto guarded = run_project({{"src/service/worker.cpp", R"(
    void f(std::weak_ptr<Widget> weak) {
      std::unique_lock<std::mutex> lk(mu_);
      lk.unlock();
      recompute();
      lk.lock();
      if (auto strong = weak.lock()) strong->poke();
    }
  )"}});
  EXPECT_EQ(count_rule(guarded.diagnostics, "scope-pairing"), 0);
}

// ---------------------------------------------------------------------------
// expected-flow (semantic, interprocedural)
// ---------------------------------------------------------------------------

TEST(ExpectedFlow, FiresOnDiscardedStatusCallAcrossFiles) {
  auto result = run_project({
      {"src/obs/sink.cpp", R"(
        Status flush_sink() { return Status::ok(); }
      )"},
      {"src/service/worker.cpp", R"(
        void f() {
          flush_sink();
        }
      )"},
  });
  ASSERT_EQ(count_rule(result.diagnostics, "expected-flow"), 1);
  EXPECT_EQ(result.diagnostics[0].path, "src/service/worker.cpp");
  // The message names the defining file so the finding is checkable.
  EXPECT_NE(result.diagnostics[0].message.find("src/obs/sink.cpp"), std::string::npos);
}

TEST(ExpectedFlow, CleanWhenResultIsConsumed) {
  auto result = run_project({
      {"src/obs/sink.cpp", R"(
        Status flush_sink() { return Status::ok(); }
        Expected<int> count_rows() { return 3; }
      )"},
      {"src/service/worker.cpp", R"(
        Status f() {
          Status st = flush_sink();
          if (!st.ok()) return st;
          auto n = count_rows();
          return flush_sink();
        }
      )"},
  });
  EXPECT_EQ(count_rule(result.diagnostics, "expected-flow"), 0);
}

TEST(ExpectedFlow, OverloadWithNonStatusReturnDisarmsTheRule) {
  // A same-named definition returning void exists: name-level indexing
  // cannot tell which overload the call resolves to, so it must not fire.
  auto result = run_project({
      {"src/obs/sink.cpp", R"(
        Status flush_sink() { return Status::ok(); }
      )"},
      {"src/core/other.cpp", R"(
        void flush_sink(int fd) { fsync_all(fd); }
      )"},
      {"src/service/worker.cpp", R"(
        void f() {
          flush_sink();
        }
      )"},
  });
  EXPECT_EQ(count_rule(result.diagnostics, "expected-flow"), 0);
}

TEST(ExpectedFlow, TryPrefixedCallsBelongToDiscardedStatus) {
  auto result = run_project({
      {"src/core/api.cpp", R"(
        Status try_convert(const M& m) { return Status::ok(); }
      )"},
      {"src/service/worker.cpp", R"(
        void f(const M& m) {
          try_convert(m);
        }
      )"},
  });
  EXPECT_EQ(count_rule(result.diagnostics, "expected-flow"), 0);
  EXPECT_EQ(count_rule(result.diagnostics, "discarded-status"), 1);
}

// ---------------------------------------------------------------------------
// Include graph: cycles and layering
// ---------------------------------------------------------------------------

TEST(IncludeGraph, DetectsSyntheticIncludeCycle) {
  auto result = run_project({
      {"src/core/a.h", "#pragma once\n#include \"core/b.h\"\n"},
      {"src/core/b.h", "#pragma once\n#include \"core/a.h\"\n"},
  });
  ASSERT_EQ(count_rule(result.diagnostics, "include-cycle"), 1);
  EXPECT_NE(result.diagnostics[0].message.find("src/core/a.h"), std::string::npos);
  EXPECT_NE(result.diagnostics[0].message.find("src/core/b.h"), std::string::npos);
}

TEST(IncludeGraph, FlagsLayerInversionButNotTheForwardEdge) {
  // matrix (layer 3) including core (layer 4) is an inversion; core
  // including matrix is the declared direction.
  auto inverted = run_project({
      {"src/matrix/m.h", "#pragma once\n#include \"core/c.h\"\n"},
      {"src/core/c.h", "#pragma once\n"},
  });
  ASSERT_EQ(count_rule(inverted.diagnostics, "layer-violation"), 1);
  EXPECT_EQ(inverted.diagnostics[0].path, "src/matrix/m.h");
  EXPECT_EQ(inverted.diagnostics[0].line, 2);

  auto forward = run_project({
      {"src/core/c.h", "#pragma once\n#include \"matrix/m.h\"\n"},
      {"src/matrix/m.h", "#pragma once\n"},
  });
  EXPECT_EQ(count_rule(forward.diagnostics, "layer-violation"), 0);
}

TEST(IncludeGraph, UnknownSrcModuleMustDeclareItsLayer) {
  auto result = run_project({{"src/newmod/x.h", "#pragma once\n"}});
  EXPECT_EQ(count_rule(result.diagnostics, "layer-violation"), 1);
}

TEST(IncludeGraph, TsgLintIsStandalone) {
  auto result = run_project({
      {"tools/tsg_lint/lexer.h", "#pragma once\n#include \"common/status.h\"\n"},
      {"src/common/status.h", "#pragma once\n"},
  });
  ASSERT_EQ(count_rule(result.diagnostics, "layer-violation"), 1);
  EXPECT_EQ(result.diagnostics[0].path, "tools/tsg_lint/lexer.h");
}

TEST(IncludeGraph, AppsMayIncludeAnyLayerAndSelfEdgesAreFree) {
  auto result = run_project({
      {"tests/test_x.cpp", "#include \"service/spgemm_service.h\"\n#include \"core/c.h\"\n"},
      {"src/service/spgemm_service.h", "#pragma once\n#include \"core/c.h\"\n"},
      {"src/core/c.h", "#pragma once\n#include \"core/d.h\"\n"},
      {"src/core/d.h", "#pragma once\n"},
  });
  EXPECT_EQ(count_rule(result.diagnostics, "layer-violation"), 0);
  EXPECT_EQ(count_rule(result.diagnostics, "include-cycle"), 0);
}

TEST(IncludeGraph, SuppressionOnTheLineAboveWorksForIncludeFindings) {
  auto result = run_project({
      {"src/matrix/m.h",
       "#pragma once\n// tsg-lint: allow(layer-violation)\n#include \"core/c.h\"\n"},
      {"src/core/c.h", "#pragma once\n"},
  });
  EXPECT_EQ(count_rule(result.diagnostics, "layer-violation"), 0);
  EXPECT_EQ(result.stats.suppressed, 1);
}

// ---------------------------------------------------------------------------
// SARIF emission
// ---------------------------------------------------------------------------

TEST(Sarif, OutputIsWellFormedJsonWithRuleTableAndResults) {
  auto result = run_project({{"src/core/foo.cpp", R"(
    int f() { return rand(); }
  )"}});
  ASSERT_EQ(result.diagnostics.size(), 1u);

  std::ostringstream os;
  tsg::lint::write_sarif(result.diagnostics, tsg::lint::all_rule_info(), os);
  const std::string sarif = os.str();

  EXPECT_TRUE(test::JsonChecker(sarif).valid()) << sarif;
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"tsg-lint\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"banned-fn\""), std::string::npos);
  EXPECT_NE(sarif.find("src/core/foo.cpp"), std::string::npos);
  // The full rule table rides along even for rules with zero findings.
  EXPECT_NE(sarif.find("\"id\": \"cancel-poll\""), std::string::npos);
}

TEST(Sarif, EmptyRunIsStillValid) {
  std::ostringstream os;
  tsg::lint::write_sarif({}, tsg::lint::all_rule_info(), os);
  EXPECT_TRUE(test::JsonChecker(os.str()).valid());
  EXPECT_NE(os.str().find("\"results\": ["), std::string::npos);
}

TEST(Sarif, MessagesWithQuotesAndNewlinesAreEscaped) {
  std::vector<Diagnostic> diags = {
      {"banned-fn", "a.cpp", 1, "say \"no\" to\nrand \\ backslash"}};
  std::ostringstream os;
  tsg::lint::write_sarif(diags, tsg::lint::all_rule_info(), os);
  EXPECT_TRUE(test::JsonChecker(os.str()).valid()) << os.str();
}

// ---------------------------------------------------------------------------
// Baseline: roundtrip and diff semantics
// ---------------------------------------------------------------------------

TEST(Baseline, WriteLoadRoundtrip) {
  std::vector<Diagnostic> diags = {
      {"banned-fn", "a.cpp", 3, "m"},
      {"banned-fn", "a.cpp", 9, "m"},
      {"raw-alloc", "b.cpp", 1, "m"},
  };
  std::ostringstream os;
  tsg::lint::write_baseline(diags, os);
  EXPECT_TRUE(test::JsonChecker(os.str()).valid()) << os.str();

  tsg::lint::Baseline loaded;
  std::string error;
  ASSERT_TRUE(tsg::lint::load_baseline(os.str(), loaded, error)) << error;
  ASSERT_EQ(loaded.entries.size(), 2u);
  EXPECT_EQ((loaded.entries[{"banned-fn", "a.cpp"}]), 2);
  EXPECT_EQ((loaded.entries[{"raw-alloc", "b.cpp"}]), 1);
}

TEST(Baseline, DiffGrandfathersTheBudgetAndReportsTheExcess) {
  tsg::lint::Baseline baseline;
  baseline.entries[{"banned-fn", "a.cpp"}] = 1;

  // Two findings against a budget of one: the first (by line) is absorbed,
  // the second is fresh. Line numbers shifting does not matter — only the
  // count does.
  std::vector<Diagnostic> diags = {
      {"banned-fn", "a.cpp", 14, "m"},
      {"banned-fn", "a.cpp", 90, "m"},
  };
  auto diff = tsg::lint::diff_baseline(diags, baseline);
  EXPECT_EQ(diff.grandfathered, 1);
  ASSERT_EQ(diff.fresh.size(), 1u);
  EXPECT_EQ(diff.fresh[0].line, 90);
  EXPECT_TRUE(diff.stale.empty());
}

TEST(Baseline, UnbaselinedRuleOrPathIsAlwaysFresh) {
  tsg::lint::Baseline baseline;
  baseline.entries[{"banned-fn", "a.cpp"}] = 5;
  std::vector<Diagnostic> diags = {
      {"banned-fn", "other.cpp", 1, "m"},
      {"raw-alloc", "a.cpp", 2, "m"},
  };
  auto diff = tsg::lint::diff_baseline(diags, baseline);
  EXPECT_EQ(diff.grandfathered, 0);
  EXPECT_EQ(diff.fresh.size(), 2u);
  // The unused budget for (banned-fn, a.cpp) is reported stale.
  ASSERT_EQ(diff.stale.size(), 1u);
  EXPECT_NE(diff.stale[0].find("banned-fn a.cpp"), std::string::npos);
}

TEST(Baseline, MalformedBaselineFailsLoudly) {
  tsg::lint::Baseline out;
  std::string error;
  EXPECT_FALSE(tsg::lint::load_baseline("{\"entries\": [{\"rule\": \"x\"}]}", out, error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(tsg::lint::load_baseline("not json", out, error));
  EXPECT_FALSE(tsg::lint::load_baseline("{}", out, error));  // missing entries
}

TEST(Baseline, EmptyBaselineAbsorbsNothing) {
  tsg::lint::Baseline baseline;
  std::string error;
  ASSERT_TRUE(tsg::lint::load_baseline(
      "{\n  \"version\": 1,\n  \"tool\": \"tsg-lint\",\n  \"entries\": []\n}\n",
      baseline, error))
      << error;
  std::vector<Diagnostic> diags = {{"banned-fn", "a.cpp", 1, "m"}};
  auto diff = tsg::lint::diff_baseline(diags, baseline);
  EXPECT_EQ(diff.fresh.size(), 1u);
  EXPECT_EQ(diff.grandfathered, 0);
}

}  // namespace
