"""The whole-program analyzer: module graph, dataflow, and RPL102-RPL103.

Testing strategy mirrors how the simulator itself is goldened — by
*mutation*, not inspection: each rule gets a miniature in-memory
package (``ModuleGraph.from_sources``) that is clean, then a seeded
violation that must fire.  Last, the real repository is analyzed and
must come out clean, which is the gate the ``reprolint-project`` CI
job enforces.
"""

from __future__ import annotations

import json
import os
import textwrap

from repro.lintkit.cli import main as cli_main
from repro.lintkit.dataflow import analyze_project
from repro.lintkit.engine import run_project
from repro.lintkit.modgraph import ModuleGraph
from repro.lintkit.project_rules import FORK_SAFE_GLOBALS, run_project_rules

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def graph_of(**files):
    """Build a ModuleGraph from ``module_path="source"`` kwargs.

    Keys use ``__`` as the path separator and omit the ``src/repro/``
    prefix and ``.py`` suffix: ``core__afr="..."`` becomes
    ``src/repro/core/afr.py``.
    """
    sources = {}
    for key, text in files.items():
        relpath = "src/repro/" + key.replace("__", "/") + ".py"
        sources[relpath] = textwrap.dedent(text)
    sources.setdefault("src/repro/__init__.py", "")
    return ModuleGraph.from_sources(sources)


def codes(graph, select=None):
    findings, _suppressed = run_project_rules(graph, select=select)
    return [f.code for f in findings]


#: Shared fixture fragment: a registry stub the rules resolve against.
ENVVARS = """\
def get(name, default=None):
    return default

def get_flag(name, default=False):
    return default
"""


# -- module graph -------------------------------------------------------------


def test_modgraph_binds_imports_and_definitions():
    graph = graph_of(
        a="def helper():\n    return 1\n",
        b="from repro.a import helper\n",
    )
    assert graph.qualify("repro.a", "helper") == "repro.a.helper"
    assert graph.qualify("repro.b", "helper") == "repro.a.helper"
    assert "repro.a" in graph.modules["repro.b"].imports


def test_modgraph_chases_reexport_chains():
    graph = graph_of(
        impl="def run_scenario(config):\n    return config\n",
        __init__="",
        facade="from repro.impl import run_scenario\n",
        user="from repro.facade import run_scenario\n",
    )
    assert (
        graph.qualify("repro.user", "run_scenario") == "repro.impl.run_scenario"
    )


def test_modgraph_relative_imports():
    graph = ModuleGraph.from_sources(
        {
            "src/repro/__init__.py": "",
            "src/repro/pkg/__init__.py": "from .leaf import thing\n",
            "src/repro/pkg/leaf.py": "def thing():\n    return 1\n",
            "src/repro/pkg/sibling.py": "from .leaf import thing\n",
        }
    )
    assert (
        graph.qualify("repro.pkg.sibling", "thing") == "repro.pkg.leaf.thing"
    )
    assert graph.qualify("repro.pkg", "thing") == "repro.pkg.leaf.thing"


def test_modgraph_function_scope_imports_count_for_reachability():
    graph = graph_of(
        lazy="def task():\n    from repro.dep import f\n    return f()\n",
        dep="def f():\n    return 1\n",
    )
    assert "repro.dep" in graph.reachable_modules(["repro.lazy"])


def test_modgraph_parse_error_reported():
    graph = ModuleGraph.from_sources(
        {"src/repro/broken.py": "def broken(:\n"}
    )
    assert [f.code for f in graph.parse_errors] == ["RPL000"]
    assert "repro.broken" not in graph.modules


# -- dataflow -----------------------------------------------------------------


def test_dataflow_env_reads_and_module_scope():
    graph = graph_of(
        envvars=ENVVARS,
        cfg=(
            "from repro import envvars\n"
            "FROZEN = envvars.get('REPRO_TRACE')\n"
            "def late():\n"
            "    return envvars.get('REPRO_METRICS')\n"
        ),
    )
    project = analyze_project(graph)
    module = project.modules["repro.cfg"]
    assert [r.name for r in module.module_env_reads] == ["REPRO_TRACE"]


def test_dataflow_worker_tasks_and_mutable_globals():
    graph = graph_of(
        state=(
            "_MEMO = {}\n"
            "def remember(k):\n"
            "    _MEMO[k] = 1\n"
        ),
        work=(
            "from repro.state import remember\n"
            "def task(item):\n"
            "    return remember(item)\n"
            "def dispatch(pool, items):\n"
            "    return pool.map(task, items)\n"
        ),
    )
    project = analyze_project(graph)
    assert project.worker_tasks() == ["repro.work.task"]
    state = project.modules["repro.state"]
    assert state.globals["_MEMO"].kind == "container"
    assert "repro.state._MEMO" in state.mutations


# -- RPL102: fork-safety ------------------------------------------------------

WORKER = """\
from repro import state

def task(item):
    return state.remember(item)

def dispatch(pool, items):
    return pool.map(task, items)
"""

MUTATED_STATE = """\
_MEMO = {}

def remember(k):
    _MEMO[k] = 1
"""


def test_rpl102_fires_on_mutated_global_reachable_from_worker():
    graph = graph_of(state=MUTATED_STATE, work=WORKER)
    findings, _ = run_project_rules(graph, select=["RPL102"])
    assert [f.code for f in findings] == ["RPL102"]
    assert "_MEMO" in findings[0].message


def test_rpl102_silent_without_worker_tasks():
    graph = graph_of(state=MUTATED_STATE)
    assert codes(graph, select=["RPL102"]) == []


def test_rpl102_register_at_fork_makes_module_fork_aware():
    aware = (
        "import os\n" + MUTATED_STATE +
        "def _reset():\n"
        "    _MEMO.clear()\n"
        "os.register_at_fork(after_in_child=_reset)\n"
    )
    graph = graph_of(state=aware, work=WORKER)
    assert codes(graph, select=["RPL102"]) == []


def test_rpl102_adopt_hook_mutations_do_not_count():
    adopted = (
        "_MEMO = {}\n"
        "def adopt(snapshot):\n"
        "    _MEMO.update(snapshot)\n"
        "def remember(k):\n"
        "    return _MEMO.get(k)\n"
    )
    graph = graph_of(state=adopted, work=WORKER)
    assert codes(graph, select=["RPL102"]) == []


def test_rpl102_module_level_lock_flagged_without_mutation():
    locked = (
        "import threading\n"
        "LOCK = threading.Lock()\n"
        "def remember(k):\n"
        "    with LOCK:\n"
        "        return k\n"
    )
    graph = graph_of(state=locked, work=WORKER)
    findings, _ = run_project_rules(graph, select=["RPL102"])
    assert [f.code for f in findings] == ["RPL102"]
    assert "LOCK" in findings[0].message


def test_rpl102_unreachable_module_is_silent():
    graph = graph_of(
        state="def remember(k):\n    return k\n",
        work=WORKER,
        island=MUTATED_STATE,  # never imported by the worker's closure
    )
    assert codes(graph, select=["RPL102"]) == []


def test_rpl102_suppression_comment_honored():
    suppressed = MUTATED_STATE.replace(
        "_MEMO = {}", "_MEMO = {}  # reprolint: disable=RPL102"
    )
    graph = graph_of(state=suppressed, work=WORKER)
    findings, suppressed_count = run_project_rules(
        graph, select=["RPL102"]
    )
    assert findings == []
    assert suppressed_count == 1


# -- RPL103: import-time env reads -------------------------------------------


def test_rpl103_fires_on_module_scope_read():
    graph = graph_of(
        envvars=ENVVARS,
        cfg=(
            "from repro import envvars\n"
            "LEVEL = envvars.get('REPRO_TRACE')\n"
        ),
    )
    findings, _ = run_project_rules(graph, select=["RPL103"])
    assert [f.code for f in findings] == ["RPL103"]
    assert findings[0].line == 2


def test_rpl103_function_scope_read_is_fine():
    graph = graph_of(
        envvars=ENVVARS,
        cfg=(
            "from repro import envvars\n"
            "def level():\n"
            "    return envvars.get('REPRO_TRACE')\n"
        ),
    )
    assert codes(graph, select=["RPL103"]) == []


def test_rpl103_conditional_module_scope_still_fires():
    graph = graph_of(
        envvars=ENVVARS,
        cfg=(
            "from repro import envvars\n"
            "if True:\n"
            "    LEVEL = envvars.get('REPRO_TRACE')\n"
        ),
    )
    assert codes(graph, select=["RPL103"]) == ["RPL103"]


# -- allowlist hygiene --------------------------------------------------------


def test_allowlists_carry_rationales():
    for name, rationale in FORK_SAFE_GLOBALS.items():
        assert isinstance(rationale, str) and len(rationale) > 10, (
            "allowlist entry %s needs a real rationale" % name
        )


def test_fork_safe_allowlist_names_exist_in_tree():
    graph = ModuleGraph.load(REPO_ROOT)
    project = analyze_project(graph)
    for qualname in FORK_SAFE_GLOBALS:
        module, name = qualname.rsplit(".", 1)
        summary = project.modules.get(module)
        assert summary is not None and name in summary.globals, (
            "FORK_SAFE_GLOBALS entry %s matches nothing; prune it"
            % qualname
        )


# -- the real repository gate -------------------------------------------------


def test_repo_project_pass_is_clean():
    """The CI gate: the whole-program pass over src/repro is clean."""
    result = run_project(REPO_ROOT, baseline=None)
    assert result.files > 100
    assert result.findings == [], "cross-module violations:\n%s" % "\n".join(
        "%s %s %s" % (f.location(), f.code, f.message)
        for f in result.findings
    )
    # The analysis is non-vacuous.
    project = analyze_project(ModuleGraph.load(REPO_ROOT))
    assert len(project.functions) > 500
    assert project.worker_tasks(), "worker tasks lost; RPL102 is blind"


# -- CLI ----------------------------------------------------------------------


def _bad_project_repo(tmp_path):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "envvars.py").write_text(textwrap.dedent(ENVVARS))
    (pkg / "cfg.py").write_text(
        "from repro import envvars\n"
        "LEVEL = envvars.get('REPRO_TRACE')\n"
    )
    return tmp_path


def test_cli_project_finds_and_reports(tmp_path, capsys):
    root = _bad_project_repo(tmp_path)
    assert cli_main(["--root", str(root), "--project"]) == 1
    out = capsys.readouterr().out
    assert "RPL103" in out and "src/repro/cfg.py:2" in out


def test_cli_project_rejects_explicit_paths(tmp_path, capsys):
    assert (
        cli_main(["--root", str(tmp_path), "--project", "src/repro"]) == 2
    )
    capsys.readouterr()


def test_cli_project_select(tmp_path, capsys):
    root = _bad_project_repo(tmp_path)
    assert (
        cli_main(["--root", str(root), "--project", "--select", "RPL102"])
        == 0
    )
    assert (
        cli_main(["--root", str(root), "--project", "--select", "RPL103"])
        == 1
    )
    capsys.readouterr()


def test_cli_list_rules_includes_project_codes(capsys):
    assert cli_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("RPL102", "RPL103"):
        assert code in out


def test_cli_write_baseline_covers_both_passes(tmp_path, capsys):
    root = _bad_project_repo(tmp_path)
    # Add a per-file violation next to the project-level one.
    (root / "src" / "repro" / "clock.py").write_text(
        "import time\n\ndef f():\n    return time.time()\n"
    )
    assert cli_main(["--root", str(root), "--write-baseline"]) == 0
    capsys.readouterr()
    baseline = json.loads(
        (root / "tools" / "reprolint_baseline.json").read_text()
    )
    baselined_codes = {entry["code"] for entry in baseline["entries"]}
    assert baselined_codes == {"RPL002", "RPL103"}
    # Both passes now run clean against the shared baseline.
    assert cli_main(["--root", str(root)]) == 0
    assert cli_main(["--root", str(root), "--project"]) == 0
    out = capsys.readouterr().out
    assert "stale baseline entry" not in out
