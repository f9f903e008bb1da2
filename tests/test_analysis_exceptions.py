"""Tier-1 tests for the exception-flow rule family E001–E006.

Each rule gets at least one positive fixture (a scratch tree where the
finding is exact) and one negative fixture (the disciplined version that
must stay clean).  The end of the file covers the scope/severity
plumbing (``--scope exception``, ``--fail-on``, ``--list-rules``) and
the never-raises serving contract end-to-end: the source tree is clean,
the model proves :meth:`SimilarityServer.topk` has an empty escape set,
and mutated copies of the tree (catch narrowed, allow stripped) fail the
pass with the full propagation chain — the static side of the dynamic
fault-injection suite.
"""

import functools
import shutil
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import run_analysis
from repro.analysis import rules as _rules  # noqa: F401  (populates the registry)
from repro.analysis.registry import SCOPE_FAMILIES, format_rule_table, rules_in_family

pytestmark = pytest.mark.lint

REPO = Path(__file__).resolve().parents[1]


def _write(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def _report(tmp_path, files, rules=None, scope=None):
    for rel, source in files.items():
        _write(tmp_path, "src/" + rel, source)
    return run_analysis(
        [tmp_path / "src"], root=tmp_path, rules=rules, scope=scope
    )


# ---------------------------------------------------------------------------
# E001 — never-raises contract
# ---------------------------------------------------------------------------


class TestE001NeverRaises:
    def test_direct_raise_escaping_contract_is_flagged(self, tmp_path):
        report = _report(
            tmp_path,
            {
                "mod.py": """\
                def boom():
                    raise ValueError("bad input")

                # contract: never-raises
                def entry():
                    return boom()
                """
            },
            rules=["E001"],
        )
        assert len(report.violations) == 1
        v = report.violations[0]
        assert v.rule == "E001"
        assert v.severity == "error"
        assert v.path == "src/mod.py"
        assert v.line == 2  # reported at the raise origin
        assert "ValueError" in v.message
        assert "entry -> boom" in v.message  # full propagation chain

    def test_cross_module_chain_is_reported(self, tmp_path):
        report = _report(
            tmp_path,
            {
                "deep.py": """\
                def inner():
                    raise RuntimeError("deep fault")

                def middle():
                    return inner()
                """,
                "top.py": """\
                from deep import middle

                def entry():  # contract: never-raises
                    return middle()
                """,
            },
            rules=["E001"],
        )
        assert len(report.violations) == 1
        v = report.violations[0]
        assert v.path == "src/deep.py"
        assert "entry -> middle -> inner" in v.message
        assert "RuntimeError" in v.message

    def test_builtin_raiser_catalogue_is_tracked(self, tmp_path):
        report = _report(
            tmp_path,
            {
                "mod.py": """\
                def entry(d):  # contract: never-raises
                    return d["key"]
                """
            },
            rules=["E001"],
        )
        raised = {v.message.split(" can escape")[0].split()[-1] for v in report.violations}
        assert raised == {"IndexError", "KeyError"}
        assert any("subscript" in v.message for v in report.violations)

    def test_handled_exception_does_not_escape(self, tmp_path):
        report = _report(
            tmp_path,
            {
                "mod.py": """\
                def boom():
                    raise ValueError("bad input")

                def entry():  # contract: never-raises
                    try:
                        return boom()
                    except Exception:
                        return None
                """
            },
            rules=["E001"],
        )
        assert report.ok

    def test_handler_subclass_hierarchy_is_honoured(self, tmp_path):
        report = _report(
            tmp_path,
            {
                "mod.py": """\
                def entry(d):  # contract: never-raises
                    try:
                        return d["key"]
                    except LookupError:
                        return None
                """
            },
            rules=["E001"],
        )
        assert report.ok  # KeyError/IndexError are LookupErrors

    def test_bare_reraise_escapes_the_handler(self, tmp_path):
        report = _report(
            tmp_path,
            {
                "mod.py": """\
                def boom():
                    raise ValueError("bad input")

                def entry():  # contract: never-raises
                    try:
                        return boom()
                    except ValueError:
                        raise
                """
            },
            rules=["E001"],
        )
        assert len(report.violations) == 1
        assert "ValueError" in report.violations[0].message

    def test_project_exception_classes_resolve_through_bases(self, tmp_path):
        report = _report(
            tmp_path,
            {
                "mod.py": """\
                class ServeFault(RuntimeError):
                    pass

                def boom():
                    raise ServeFault("degraded")

                def entry():  # contract: never-raises
                    try:
                        return boom()
                    except RuntimeError:
                        return None

                def leaky():  # contract: never-raises
                    try:
                        return boom()
                    except ValueError:
                        return None
                """
            },
            rules=["E001"],
        )
        assert len(report.violations) == 1
        assert "leaky" in report.violations[0].message
        assert "ServeFault" in report.violations[0].message


# ---------------------------------------------------------------------------
# E002 — over-broad / dead handlers
# ---------------------------------------------------------------------------


class TestE002OverbroadHandlers:
    def test_bare_except_without_reraise_is_flagged(self, tmp_path):
        report = _report(
            tmp_path,
            {
                "mod.py": """\
                def f(d):
                    try:
                        return d["k"]
                    except:
                        return None
                """
            },
            rules=["E002"],
        )
        assert len(report.violations) == 1
        v = report.violations[0]
        assert v.severity == "warning"
        assert "BaseException" in v.message

    def test_dead_narrow_handler_is_flagged(self, tmp_path):
        report = _report(
            tmp_path,
            {
                "mod.py": """\
                def f(d):
                    try:
                        return d["k"]
                    except ZeroDivisionError:
                        return None
                """
            },
            rules=["E002"],
        )
        assert len(report.violations) == 1
        assert "dead" in report.violations[0].message
        assert "KeyError" in report.violations[0].message

    def test_baseexception_with_reraise_is_clean(self, tmp_path):
        report = _report(
            tmp_path,
            {
                "mod.py": """\
                def f(d):
                    try:
                        return d["k"]
                    except BaseException:
                        raise
                """
            },
            rules=["E002"],
        )
        assert report.ok

    def test_matching_narrow_handler_is_clean(self, tmp_path):
        report = _report(
            tmp_path,
            {
                "mod.py": """\
                def f(d):
                    try:
                        return d["k"]
                    except LookupError:
                        return None
                """
            },
            rules=["E002"],
        )
        assert report.ok

    def test_unresolved_body_suppresses_dead_claim(self, tmp_path):
        report = _report(
            tmp_path,
            {
                "mod.py": """\
                def f(path):
                    try:
                        return open(path).read()
                    except OSError:
                        return None
                """
            },
            rules=["E002"],
        )
        assert report.ok  # open() is outside the model: no dead-handler claim


# ---------------------------------------------------------------------------
# E003 — swallowed exceptions
# ---------------------------------------------------------------------------


class TestE003SwallowedExceptions:
    def test_broad_pass_handler_is_flagged(self, tmp_path):
        report = _report(
            tmp_path,
            {
                "mod.py": """\
                def f(d):
                    try:
                        return d["k"]
                    except Exception:
                        pass
                """
            },
            rules=["E003"],
        )
        assert len(report.violations) == 1
        v = report.violations[0]
        assert v.severity == "warning"
        assert "swallows" in v.message

    def test_logging_handler_is_clean(self, tmp_path):
        report = _report(
            tmp_path,
            {
                "mod.py": """\
                from repro.obs.log import get_logger

                log = get_logger("mod")

                def f(d):
                    try:
                        return d["k"]
                    except Exception as exc:
                        log.warning("lookup-failed", error=type(exc).__name__)
                        return None
                """
            },
            rules=["E003"],
        )
        assert report.ok

    def test_sentinel_return_is_clean(self, tmp_path):
        report = _report(
            tmp_path,
            {
                "mod.py": """\
                def f(d):
                    try:
                        return d["k"]
                    except Exception:
                        return None
                """
            },
            rules=["E003"],
        )
        assert report.ok

    def test_reraise_is_clean(self, tmp_path):
        report = _report(
            tmp_path,
            {
                "mod.py": """\
                def f(d):
                    try:
                        return d["k"]
                    except Exception as exc:
                        raise RuntimeError("wrapped") from exc
                """
            },
            rules=["E003"],
        )
        assert report.ok


# ---------------------------------------------------------------------------
# E004 — raise inside cleanup
# ---------------------------------------------------------------------------


class TestE004RaiseInCleanup:
    def test_raise_in_finally_is_flagged(self, tmp_path):
        report = _report(
            tmp_path,
            {
                "mod.py": """\
                def f(resource):
                    try:
                        return resource.read()
                    finally:
                        raise ValueError("cleanup failed")
                """
            },
            rules=["E004"],
        )
        assert len(report.violations) == 1
        v = report.violations[0]
        assert v.severity == "error"
        assert "finally" in v.message

    def test_raise_in_exit_is_flagged(self, tmp_path):
        report = _report(
            tmp_path,
            {
                "mod.py": """\
                class Guard:
                    def __enter__(self):
                        return self

                    def __exit__(self, exc_type, exc, tb):
                        raise RuntimeError("bad cleanup")
                """
            },
            rules=["E004"],
        )
        assert len(report.violations) == 1
        assert "__exit__" in report.violations[0].message

    def test_plain_raise_and_bare_reraise_are_clean(self, tmp_path):
        report = _report(
            tmp_path,
            {
                "mod.py": """\
                class Guard:
                    def close(self):
                        raise ValueError("not cleanup: a normal method")

                    def __exit__(self, exc_type, exc, tb):
                        try:
                            self.close()
                        except Exception:
                            raise
                """
            },
            rules=["E004"],
        )
        assert report.ok


# ---------------------------------------------------------------------------
# E005 — exception constructed but never raised
# ---------------------------------------------------------------------------


class TestE005UnraisedException:
    def test_bare_construction_is_flagged(self, tmp_path):
        report = _report(
            tmp_path,
            {
                "mod.py": """\
                def f(x):
                    if x < 0:
                        ValueError("negative input")
                    return x
                """
            },
            rules=["E005"],
        )
        assert len(report.violations) == 1
        v = report.violations[0]
        assert v.severity == "error"
        assert "ValueError" in v.message
        assert "raise" in v.message

    def test_raised_and_assigned_constructions_are_clean(self, tmp_path):
        report = _report(
            tmp_path,
            {
                "mod.py": """\
                def f(x):
                    if x < 0:
                        raise ValueError("negative input")
                    err = ValueError("kept for later")
                    return err
                """
            },
            rules=["E005"],
        )
        assert report.ok


# ---------------------------------------------------------------------------
# E006 — exception-unsafe lock release
# ---------------------------------------------------------------------------


class TestE006UnsafeLockRelease:
    def test_release_outside_finally_is_flagged(self, tmp_path):
        report = _report(
            tmp_path,
            {
                "mod.py": """\
                import threading

                LOCK = threading.Lock()

                def f(d):
                    LOCK.acquire()
                    value = d["k"]
                    LOCK.release()
                    return value
                """
            },
            rules=["E006"],
        )
        assert len(report.violations) == 1
        v = report.violations[0]
        assert v.severity == "error"
        assert "LOCK" in v.message
        assert "finally" in v.message

    def test_release_in_finally_is_clean(self, tmp_path):
        report = _report(
            tmp_path,
            {
                "mod.py": """\
                import threading

                LOCK = threading.Lock()

                def f(d):
                    LOCK.acquire()
                    try:
                        return d["k"]
                    finally:
                        LOCK.release()
                """
            },
            rules=["E006"],
        )
        assert report.ok

    def test_self_attribute_lock_is_resolved(self, tmp_path):
        report = _report(
            tmp_path,
            {
                "mod.py": """\
                import threading

                class Box:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._items = []

                    def bad_take(self, d):
                        self._lock.acquire()
                        item = d["k"]
                        self._lock.release()
                        return item
                """
            },
            rules=["E006"],
        )
        assert len(report.violations) == 1
        assert "self._lock" in report.violations[0].message


# ---------------------------------------------------------------------------
# Scope, severity and --list-rules plumbing
# ---------------------------------------------------------------------------


class TestExceptionScopePlumbing:
    def test_exception_scope_selects_the_e_family(self):
        assert "exception" in SCOPE_FAMILIES
        assert rules_in_family("exception") == [
            "E001", "E002", "E003", "E004", "E005", "E006",
        ]

    def test_fail_on_error_lets_warnings_through(self, tmp_path):
        report = _report(
            tmp_path,
            {
                "mod.py": """\
                def f(d):
                    try:
                        return d["k"]
                    except Exception:
                        pass
                """
            },
            scope="exception",
        )
        assert [v.rule for v in report.violations] == ["E003"]
        assert report.failing("error") == []
        assert len(report.failing("warning")) == 1

    def test_inline_allow_suppresses_e_findings(self, tmp_path):
        report = _report(
            tmp_path,
            {
                "mod.py": """\
                def f(d):
                    try:
                        return d["k"]
                    except Exception:  # lint: allow(E003)
                        pass
                """
            },
            scope="exception",
        )
        assert report.ok
        assert report.suppressed_count == 1

    def test_list_rules_prints_the_generated_table(self, capsys):
        from repro.analysis import main as analysis_main

        assert analysis_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in rules_in_family("all"):
            assert rule_id in out
        # id / family / severity columns are present.
        assert "exception" in out
        assert "warning" in out
        assert "E001" in out

    def test_cli_lint_list_rules(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "E006" in out
        assert "concurrency" in out

    def test_readme_rule_table_matches_the_registry(self):
        from repro.analysis import rules as _rules  # noqa: F401

        readme = (REPO / "README.md").read_text()
        for rule_id in rules_in_family("all"):
            assert rule_id in readme, f"README.md rule table is missing {rule_id}"
        # And the generated table itself lists every registered rule.
        table = format_rule_table()
        for rule_id in rules_in_family("all"):
            assert rule_id in table


# ---------------------------------------------------------------------------
# The never-raises serving contract, end to end
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _real_model():
    """The exception model over the real source tree (built once)."""
    from repro.analysis import rules as _rules  # noqa: F401
    from repro.analysis.dataflow import ProjectDataflow
    from repro.analysis.engine import FileContext, ProjectContext
    from repro.analysis.exceptions import build_exception_model

    files = []
    for path in sorted((REPO / "src").rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        rel = path.relative_to(REPO).as_posix()
        files.append(FileContext.parse(path, rel))
    project = ProjectContext(root=REPO, files=files)
    return build_exception_model(ProjectDataflow.build(project))


def _copy_src(tmp_path):
    shutil.copytree(
        REPO / "src", tmp_path / "src",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    return tmp_path / "src"


class TestNeverRaisesContract:
    def test_source_tree_is_clean_under_exception_scope(self):
        report = run_analysis([REPO / "src"], root=REPO, scope="exception")
        assert report.ok, report.format_text()

    def test_model_proves_topk_and_worker_never_raise(self):
        model = _real_model()
        contracted = {fn.key for fn in model.contracts}
        topk = "src/repro/serve/engine.py::SimilarityServer.topk"
        worker = "src/repro/serve/bench.py::run_serve_bench.worker"
        assert topk in contracted
        assert worker in contracted
        assert model.escapes[topk] == set()
        assert model.escapes[worker] == set()
        # The proof is not vacuous: the pipeline behind the guard has a
        # rich may-raise set the outer catch must discharge.
        impl = "src/repro/serve/engine.py::SimilarityServer._topk_impl"
        assert model.escapes[impl], "expected _topk_impl to have escapes"
        assert any(
            "hnsw" in esc.origin_module for esc in model.escapes[impl]
        )

    def test_model_proves_sharded_topk_never_raises(self):
        """The sharded coordinator carries the same contract as the engine.

        ``ShardedSimilarityServer.topk`` must be proven raise-free even
        though the scatter-gather path behind it can time out, lose
        workers mid-request (``ShardDeadError``) and fail remote
        encodes — the whole may-raise set has to be discharged by the
        same last-resort structure the single-process engine uses.
        """
        model = _real_model()
        contracted = {fn.key for fn in model.contracts}
        topk = "src/repro/serve/shard.py::ShardedSimilarityServer.topk"
        assert topk in contracted
        assert model.escapes[topk] == set()
        impl = "src/repro/serve/shard.py::ShardedSimilarityServer._topk_impl"
        assert model.escapes[impl], "expected sharded _topk_impl to have escapes"
        # Not vacuous either: the scatter-gather code in shard.py itself
        # raises behind the guard, not only the shared engine functions.
        assert any(
            esc.origin_module.endswith("serve/shard.py")
            for esc in model.escapes[impl]
        )

    def test_narrowed_catch_fails_with_the_propagation_chain(self, tmp_path):
        """Static/dynamic agreement, static side: un-guard topk -> E001.

        Narrowing the last-resort catch makes every raise on the index
        path escape again; the pass must fail and name the same
        HNSWIndex.query path the dynamic fault test exercises.
        """
        src = _copy_src(tmp_path)
        engine = src / "repro/serve/engine.py"
        text = engine.read_text()
        needle = "        except Exception as exc:\n            # Last-resort guard"
        assert needle in text, "topk outer catch moved: update this test"
        engine.write_text(
            text.replace(
                needle,
                "        except FutureTimeoutError as exc:\n"
                "            # Last-resort guard",
            )
        )
        report = run_analysis([src], root=tmp_path, scope="exception")
        e001 = [v for v in report.violations if v.rule == "E001"]
        assert e001, "narrowed catch must void the never-raises proof"
        assert report.failing("error"), "E001 findings must gate the build"
        hnsw_hits = [v for v in e001 if v.path.endswith("index/hnsw.py")]
        assert hnsw_hits, "expected escapes rooted in HNSWIndex"
        assert any(
            "SimilarityServer.topk" in v.message
            and "HNSWIndex.query" in v.message
            for v in hnsw_hits
        ), "finding must carry the full propagation chain"

    def test_stripped_allow_fails_the_exception_scope(self, tmp_path):
        src = _copy_src(tmp_path)
        batcher = src / "repro/serve/batcher.py"
        text = batcher.read_text()
        assert "lint: allow(E002)" in text
        batcher.write_text(text.replace("lint: allow(E002)", "allow stripped"))
        report = run_analysis([src], root=tmp_path, scope="exception")
        e002 = [v for v in report.violations if v.rule == "E002"]
        assert len(e002) == 1
        assert e002[0].path.endswith("serve/batcher.py")
        assert "BaseException" in e002[0].message
        assert report.failing("warning"), "stripped allow must fail the scope gate"

    def test_dynamic_fault_matches_the_static_claim(self):
        """Static/dynamic agreement, dynamic side: query raises, topk returns."""
        from repro.serve import SimilarityServer

        dim = 4

        def embed(trajs):
            out = np.zeros((len(trajs), dim))
            for i, t in enumerate(trajs):
                p = np.asarray(t, dtype=np.float64)
                out[i] = [p[:, 0].mean(), p[:, 1].mean(), float(len(p)), p.sum()]
            return out

        rng = np.random.default_rng(7)
        trajs = [rng.normal(size=(6, 2)) for _ in range(8)]
        with SimilarityServer(embed, dim, brute_threshold=0) as server:
            server.add_batch(trajs)

            def poisoned_query(embedding, k=1, ef=None):
                raise RuntimeError("injected index fault")

            server.index.query = poisoned_query
            result = server.topk(rng.normal(size=(6, 2)), k=2)
        # The same site the static pass flags when the guard is narrowed
        # (see test_narrowed_catch_fails_with_the_propagation_chain) is
        # survivable dynamically: a degraded answer, never a raise.
        assert result.degraded
        assert len(result.ids) == 2
