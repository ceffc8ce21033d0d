#!/usr/bin/env python3
"""Self-test for tools/lint_invariants.py's rule engine.

pytest-style test_* functions over the importable check_* API, with the same
zero-dependency fallback runner as tools/test_compare_bench.py so CI lint
can execute it directly:

  python3 tools/test_lint_invariants.py

Every numbered rule (1-9, 11) gets at least one fixture proving it FIRES on
a seeded violation and one proving its documented exemption HOLDS -- the lint
is a gate, so a silently dead rule is as bad as a false positive.  The
final integration tests run main() over a synthetic src/ tree to prove the
path-level wiring (allocation choke point, src/parallel capture exemption,
profiling I/O exemption) rather than just the per-function regexes.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import lint_invariants as lint  # noqa: E402


def run_check(check, fixture: str, *, raw: bool = False) -> list[str]:
    """Run one check_* function over a fixture string, return its errors."""
    errors: list[str] = []
    code = fixture if raw else lint.strip_comments(fixture)
    check(Path("src/fixture.hpp"), code, errors)
    return errors


# ---------------------------------------------------------------------------
# Rule 1: #pragma once.
# ---------------------------------------------------------------------------
def test_rule1_missing_pragma_once_fires():
    errors = run_check(lint.check_pragma_once,
                       "#include <cstddef>\nint x;\n", raw=True)
    assert len(errors) == 1 and "#pragma once" in errors[0]


def test_rule1_empty_header_fires():
    errors = run_check(lint.check_pragma_once, "// only a comment\n",
                       raw=True)
    assert len(errors) == 1 and "empty header" in errors[0]


def test_rule1_pragma_after_license_comment_is_clean():
    fixture = "// SPDX-License-Identifier: MIT\n/* banner\n */\n" \
              "#pragma once\nint x;\n"
    assert run_check(lint.check_pragma_once, fixture, raw=True) == []


# ---------------------------------------------------------------------------
# Rule 2: raw allocation outside the View choke point.
# ---------------------------------------------------------------------------
def test_rule2_raw_new_fires():
    errors = run_check(lint.check_raw_allocation,
                       "double* p = new double[n];\n")
    assert len(errors) == 1 and "raw new" in errors[0]


def test_rule2_malloc_family_fires():
    fixture = "void* a = malloc(n);\nvoid* b = realloc(a, n);\nfree(b);\n"
    errors = run_check(lint.check_raw_allocation, fixture)
    assert len(errors) == 3
    assert all("malloc-family" in e for e in errors)


def test_rule2_comments_and_identifiers_are_exempt():
    # "a new allocation" in prose, a member function named renew(), and a
    # string literal must not trip the expression-position regex.
    fixture = ("// grab a new allocation from the arena\n"
               "obj.renew(slot);\n"
               'debug::fail("new Buffer[n] is banned here");\n')
    assert run_check(lint.check_raw_allocation, fixture) == []


# ---------------------------------------------------------------------------
# Rule 3: serial kernel headers stay allocation-free.
# ---------------------------------------------------------------------------
def test_rule3_std_container_in_kernel_fires():
    errors = run_check(lint.check_serial_kernel,
                       "std::vector<double> scratch;\n")
    assert len(errors) == 1 and "allocation-free" in errors[0]


def test_rule3_std_array_is_exempt():
    # Fixed-size, stack-resident std::array is the sanctioned scratch.
    assert run_check(lint.check_serial_kernel,
                     "std::array<double, 8> scratch{};\n") == []


# ---------------------------------------------------------------------------
# Rule 4: invoke() pointer parameters carry PSPL_RESTRICT.
# ---------------------------------------------------------------------------
def test_rule4_unrestricted_pointer_fires():
    fixture = "static int invoke(double* d, const double* e) { return 0; }\n"
    errors = run_check(lint.check_serial_kernel, fixture)
    assert len(errors) == 2
    assert all("PSPL_RESTRICT" in e for e in errors)


def test_rule4_restricted_pointers_and_views_are_clean():
    fixture = ("static int invoke(double* PSPL_RESTRICT d,\n"
               "                  const double* PSPL_RESTRICT e,\n"
               "                  const BView& b, int n) { return 0; }\n")
    assert run_check(lint.check_serial_kernel, fixture) == []


# ---------------------------------------------------------------------------
# Rule 5: kernel lambdas capture by value.
# ---------------------------------------------------------------------------
def test_rule5_reference_capture_fires():
    fixture = 'parallel_for("fill", n, [&](std::size_t i) { y(i) = 0.0; });\n'
    errors = run_check(lint.check_kernel_captures, fixture)
    assert len(errors) == 1 and "[&]" in errors[0]


def test_rule5_named_capture_fires():
    fixture = ('parallel_for("fill", n,\n'
               '             [&y](std::size_t i) { y(i) = 0.0; });\n')
    errors = run_check(lint.check_kernel_captures, fixture)
    assert len(errors) == 1 and "capture by" in errors[0]


def test_rule5_value_capture_is_clean():
    fixture = ('parallel_for("fill", n, [=](std::size_t i) '
               "{ y(i) = 0.0; });\n")
    assert run_check(lint.check_kernel_captures, fixture) == []


# ---------------------------------------------------------------------------
# Rule 6: no stdout I/O in library code.
# ---------------------------------------------------------------------------
def test_rule6_cout_and_printf_fire():
    fixture = ('std::cout << x;\nprintf("%d", x);\n')
    errors = run_check(lint.check_io, fixture)
    assert len(errors) == 2


def test_rule6_fprintf_and_snprintf_are_exempt():
    # stderr / buffer formatting is allowed; only stdout chatter is banned.
    fixture = ('fprintf(stderr, "%d", x);\n'
               "std::snprintf(buf, sizeof buf, \"%d\", x);\n")
    assert run_check(lint.check_io, fixture) == []


# ---------------------------------------------------------------------------
# Rule 7: dispatch labels are non-empty.
# ---------------------------------------------------------------------------
def test_rule7_empty_label_fires():
    fixture = 'parallel_for("", n, [=](std::size_t) {});\n'
    errors = run_check(lint.check_kernel_labels, fixture)
    assert len(errors) == 1 and "empty label" in errors[0]


def test_rule7_descriptive_and_forwarded_labels_are_clean():
    fixture = ('parallel_for("spline.fill", n, [=](std::size_t) {});\n'
               "parallel_for(label, n, [=](std::size_t) {});\n")
    assert run_check(lint.check_kernel_labels, fixture) == []


# ---------------------------------------------------------------------------
# Rule 8: no heap allocation inside dispatch bodies.
# ---------------------------------------------------------------------------
def test_rule8_vector_growth_in_body_fires():
    fixture = ('parallel_for("bad", n, [=](std::size_t i) {\n'
               "    std::vector<double> tmp;\n"
               "    tmp.push_back(1.0);\n"
               "});\n")
    errors = run_check(lint.check_dispatch_allocation, fixture)
    assert len(errors) == 2
    assert all("WorkspaceArena" in e for e in errors)


def test_rule8_arena_staging_outside_body_is_clean():
    fixture = ("auto slot = arena.reserve<double>(n);\n"
               'parallel_for("good", n, [=](std::size_t i) {\n'
               "    slot[i] = 0.0;\n"
               "});\n")
    assert run_check(lint.check_dispatch_allocation, fixture) == []


def test_rule8_tile_dispatch_allocation_fires():
    # The fused advection driver's dispatch shape: a per-tile body staging
    # RHS + output strips. Scratch must come from the pre-reserved arena
    # slot, never a per-tile allocation.
    fixture = ('for_each_batch_tile("pspl::advection::advect_fused", policy,\n'
               "                    tile, [=](const BatchTile& t) {\n"
               "    double* strip = new double[rows * t.cols()];\n"
               "    solve_tile(t, strip);\n"
               "});\n")
    errors = run_check(lint.check_dispatch_allocation, fixture)
    assert len(errors) == 1
    assert "heap allocation" in errors[0]


def test_rule8_fused_advection_arena_strips_are_clean():
    # The real driver: strips reserved from the WorkspaceArena before the
    # dispatch, the tile body only indexes into its rank's slot.
    fixture = (
        "auto& arena = host_workspace_arena();\n"
        "arena.reserve(Exec::concurrency() * slot_bytes, label);\n"
        'for_each_batch_tile("pspl::advection::advect_fused", policy,\n'
        "                    tile, [=](const BatchTile& t) {\n"
        "    double* strip = slot_for(t.thread_rank);\n"
        "    gather_strip_from_rows(f, t.begin, t.cols(), rows, stride,\n"
        "                           strip);\n"
        "    core::solve_strip<W, UseSpmv>(s, strip, packs, 0, packs);\n"
        "    evaluator.evaluate_shifted(points, shift, col, out_row);\n"
        "});\n")
    assert run_check(lint.check_dispatch_allocation, fixture) == []


# ---------------------------------------------------------------------------
# Rule 9: no implicit double promotion in batched kernel bodies.
# ---------------------------------------------------------------------------
def test_rule9_bare_double_literal_fires():
    fixture = ("static int invoke(const AView& a) {\n"
               "    auto x = a(0, 0) * 1.0;\n"
               "    return 0;\n"
               "}\n")
    errors = run_check(lint.check_kernel_narrowing, fixture)
    assert len(errors) == 1 and "bare double literal" in errors[0]


def test_rule9_hard_coded_float_fires():
    fixture = ("static int invoke(const AView& a) {\n"
               "    float x = a(0, 0);\n"
               "    return 0;\n"
               "}\n")
    errors = run_check(lint.check_kernel_narrowing, fixture)
    assert len(errors) == 1 and "hard-coded 'float'" in errors[0]


def test_rule9_wrapped_literal_and_suffix_are_clean():
    fixture = ("static int invoke(const AView& a) {\n"
               "    auto x = a(0, 0) * T(1.0) + static_cast<T>(0.5);\n"
               "    auto y = 1.0f * 2;\n"
               "    return 0;\n"
               "}\n")
    assert run_check(lint.check_kernel_narrowing, fixture) == []


def test_rule9_cost_model_outside_invoke_is_exempt():
    fixture = ("static constexpr KernelCost cost(std::size_t n) {\n"
               "    return {2.0 / 3.0 * nd * nd * nd, 16.0 * nd * nd};\n"
               "}\n")
    assert run_check(lint.check_kernel_narrowing, fixture) == []


def test_rule9_declaration_without_body_is_skipped():
    fixture = "static int invoke(const AView& a);\n"
    assert run_check(lint.check_kernel_narrowing, fixture) == []


# ---------------------------------------------------------------------------
# Rule 11: raw atomics stay inside the sync-policy seam.
# ---------------------------------------------------------------------------
def run_atomics(fixture: str) -> list[str]:
    # check_raw_atomics takes both the raw text (exemption markers live in
    # comments) and the stripped code (matching), so run_check does not fit.
    errors: list[str] = []
    lint.check_raw_atomics(Path("src/fixture.hpp"), fixture,
                           lint.strip_comments(fixture), errors)
    return errors


def test_rule11_raw_atomic_fires():
    errors = run_atomics("std::atomic<int> counter{0};\n")
    assert len(errors) == 1 and "sync-policy seam" in errors[0]


def test_rule11_memory_order_and_aliases_fire():
    fixture = ("x.store(1, std::memory_order_release);\n"
               "std::atomic_int n{0};\n"
               "std::atomic_thread_fence(std::memory_order_seq_cst);\n")
    errors = run_atomics(fixture)
    assert len(errors) == 4  # fence line carries two tokens


def test_rule11_comments_and_strings_are_exempt():
    fixture = ("// replaced the raw std::atomic<int> with Sync::atomic\n"
               'debug::fail("std::memory_order misuse");\n'
               "typename Sync::template atomic<int> n{0};\n")
    assert run_atomics(fixture) == []


def test_rule11_marker_on_same_or_preceding_line_holds():
    fixture = (
        "std::atomic<int> a{0};  "
        "// pspl-lint: allow-raw-atomics -- ABI fixture\n"
        "// pspl-lint: allow-raw-atomics -- vendor header interop\n"
        "std::atomic<int> b{0};\n")
    assert run_atomics(fixture) == []


def test_rule11_bare_marker_without_reason_does_not_exempt():
    fixture = ("// pspl-lint: allow-raw-atomics\n"
               "std::atomic<int> a{0};\n")
    errors = run_atomics(fixture)
    assert len(errors) == 1


# ---------------------------------------------------------------------------
# strip_comments underpins every rule: static_assert message strings must
# never feed the pattern matchers (the contract-layer diagnostics quote the
# very constructs the lint bans).
# ---------------------------------------------------------------------------
def test_strip_comments_blanks_strings_and_preserves_lines():
    fixture = ('static_assert(ok, "never call malloc(n) or new double[8]");\n'
               "int y; // new double[4] in prose\n")
    code = lint.strip_comments(fixture)
    assert run_check(lint.check_raw_allocation, code, raw=True) == []
    assert code.count("\n") == fixture.count("\n")


# ---------------------------------------------------------------------------
# Integration: main() over a synthetic tree proves the path-level wiring --
# the choke-point, src/parallel and profiling exemptions live in main(),
# not in the per-function checks.
# ---------------------------------------------------------------------------
def run_main_over(files: dict[str, str]) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        repo = Path(tmp)
        for rel, content in files.items():
            path = repo / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content, encoding="utf-8")
        saved = lint.REPO, lint.SRC, lint.ALLOC_CHOKE_POINT
        lint.REPO = repo
        lint.SRC = repo / "src"
        lint.ALLOC_CHOKE_POINT = lint.SRC / "parallel" / "view.hpp"
        try:
            return lint.main()
        finally:
            lint.REPO, lint.SRC, lint.ALLOC_CHOKE_POINT = saved


def test_main_exemptions_hold_on_a_clean_tree():
    exit_code = run_main_over({
        # Choke point: the ONE file allowed to malloc.
        "src/parallel/view.hpp":
            "#pragma once\ninline void* grab(std::size_t n) "
            "{ return malloc(n); }\n",
        # Dispatcher internals: reference captures allowed in src/parallel.
        "src/parallel/parallel.hpp":
            "#pragma once\ntemplate <class F>\nvoid dispatch(F f) {\n"
            '    parallel_for("trampoline", 1,\n'
            "                 [&](std::size_t i) { f(i); });\n}\n",
        # Measurement machinery: printf allowed in profiling/report/hardware.
        "src/parallel/profiling.cpp":
            '#include <cstdio>\nvoid dump() { printf("spans\\n"); }\n',
        # Sync seam: the ONE header allowed to spell std::atomic.
        "src/parallel/sync_policy.hpp":
            "#pragma once\ntemplate <class T>\n"
            "using atomic = std::atomic<T>;\n",
        # The model checker's implementation is the other legal home.
        "src/debug/modelcheck/mc.cpp":
            "#include <atomic>\n"
            "std::memory_order weaken() "
            "{ return std::memory_order_relaxed; }\n",
    })
    assert exit_code == 0


def test_main_flags_a_dirty_tree():
    exit_code = run_main_over({
        "src/core/solver.hpp":
            "#pragma once\ninline double* leak(std::size_t n) "
            "{ return new double[n]; }\n",
        "src/core/driver.cpp":
            '#include <cstdio>\nvoid chat() { printf("hi\\n"); }\n',
        # Raw atomic outside the seam: rule 11 must flag it.
        "src/core/counter.hpp":
            "#pragma once\n#include <atomic>\n"
            "inline std::atomic<int> hits{0};\n",
    })
    assert exit_code == 1


def main():
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
    print(f"test_lint_invariants: {len(tests) - failed}/{len(tests)} passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
