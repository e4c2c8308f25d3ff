"""Every shipped reprolint rule: positive and negative cases.

Sources are synthetic strings checked through the real engine with a
``src/repro/...`` relative path, so the scope predicates (which key on
the dotted module name derived from the path) are exercised too.
"""

from __future__ import annotations

import textwrap

from repro.lintkit import check_source

CORE = "src/repro/core/mod.py"
SIM = "src/repro/simulate/mod.py"
#: Outside the simulation packages, so RPL007 stays quiet there.
OBS = "src/repro/obs/mod.py"


def codes(source: str, relpath: str = SIM):
    findings, _ = check_source(textwrap.dedent(source), relpath)
    return [f.code for f in findings]


# -- RPL001: unseeded RNG -----------------------------------------------------


def test_rpl001_flags_unseeded_default_rng():
    assert (
        codes(
            """\
            import numpy as np
            rng = np.random.default_rng()
            """
        )
        == ["RPL001"]
    )


def test_rpl001_resolves_import_aliases():
    assert (
        codes(
            """\
            from numpy.random import default_rng
            rng = default_rng()
            """
        )
        == ["RPL001"]
    )
    assert (
        codes(
            """\
            import numpy
            rng = numpy.random.default_rng()
            """
        )
        == ["RPL001"]
    )


def test_rpl001_flags_unseeded_random_random():
    assert (
        codes(
            """\
            import random
            rng = random.Random()
            """
        )
        == ["RPL001"]
    )


def test_rpl001_allows_seeded_construction():
    assert (
        codes(
            """\
            import numpy as np
            import random
            a = np.random.default_rng(0)
            b = np.random.default_rng(seed)
            c = random.Random(42)
            d = np.random.default_rng(seed=7)
            """
        )
        == []
    )


def test_rpl001_out_of_scope_outside_repro():
    assert (
        codes(
            """\
            import numpy as np
            rng = np.random.default_rng()
            """,
            relpath="tools/helper.py",
        )
        == []
    )


# -- RPL002: wall-clock reads -------------------------------------------------


def test_rpl002_flags_clock_reads_in_simulation():
    assert (
        codes(
            """\
            import time
            import datetime
            a = time.time()
            b = time.perf_counter()
            c = datetime.datetime.now()
            """
        )
        == ["RPL002", "RPL002", "RPL002"]
    )


def test_rpl002_flags_from_import_and_reference():
    assert (
        codes(
            """\
            from time import perf_counter
            start = perf_counter()
            """
        )
        == ["RPL002"]
    )
    # Passing the callable (not calling it) is still a wall-clock
    # dependency.
    assert (
        codes(
            """\
            import time
            clock = time.perf_counter
            """
        )
        == ["RPL002"]
    )


def test_rpl002_allows_instrumentation_layers():
    source = """\
    import time
    start = time.perf_counter()
    """
    assert codes(source, relpath="src/repro/obs/mod.py") == []
    assert codes(source, relpath="src/repro/runtime/mod.py") == []
    assert codes(source, relpath=SIM) == ["RPL002"]


def test_rpl002_allows_obs_submodules():
    # The sampler and monitor live under repro.obs and legitimately read
    # wall clocks (heartbeats, resource timelines); the prefix allowance
    # must cover them without inline suppressions.
    source = """\
    import time
    now = time.time()
    tick = time.monotonic()
    """
    assert codes(source, relpath="src/repro/obs/sampler.py") == []
    assert codes(source, relpath="src/repro/obs/monitor.py") == []
    # ...but the allowance does not leak past the prefix boundary.
    assert codes(source, relpath="src/repro/core/obs_like.py") == [
        "RPL002",
        "RPL002",
    ]


def test_rpl002_allows_sim_clock_arithmetic():
    assert (
        codes(
            """\
            import datetime
            EPOCH = datetime.datetime(2004, 1, 1)
            delta = EPOCH + datetime.timedelta(seconds=3.0)
            parsed = datetime.datetime.strptime("x", "%Y")
            """
        )
        == []
    )


# -- RPL003: .events materialization in repro.core ---------------------------


def test_rpl003_flags_events_walks_in_core():
    assert (
        codes(
            """\
            def afr(dataset):
                return len(dataset.events)
            """,
            relpath=CORE,
        )
        == ["RPL003"]
    )


def test_rpl003_allows_self_events_and_table():
    assert (
        codes(
            """\
            class Burst:
                def size(self):
                    return len(self.events)

            def afr(dataset):
                return dataset.table.detect_time.sum()
            """,
            relpath=CORE,
        )
        == []
    )


def test_rpl003_exempts_storage_modules_and_other_layers():
    source = """\
    def build(dataset):
        return list(dataset.events)
    """
    assert codes(source, relpath="src/repro/core/dataset.py") == []
    assert codes(source, relpath="src/repro/core/columns.py") == []
    assert codes(source, relpath=SIM) == []
    assert codes(source, relpath=CORE) == ["RPL003"]


# -- RPL004: raw os.environ access to REPRO_* --------------------------------


def test_rpl004_flags_literal_and_constant_keys():
    assert (
        codes(
            """\
            import os
            a = os.environ.get("REPRO_THING")
            b = os.getenv("REPRO_OTHER", "1")
            c = os.environ["REPRO_SUB"]
            """
        )
        == ["RPL004", "RPL004", "RPL004"]
    )
    assert (
        codes(
            """\
            import os
            KEY = "REPRO_THING"
            a = os.environ.get(KEY)
            b = KEY in os.environ
            """
        )
        == ["RPL004", "RPL004"]
    )


def test_rpl004_ignores_non_repro_variables():
    assert (
        codes(
            """\
            import os
            a = os.environ.get("OMP_NUM_THREADS")
            b = os.environ.setdefault("MKL_NUM_THREADS", "1")
            """
        )
        == []
    )


def test_rpl004_exempts_envvars_module():
    source = """\
    import os
    a = os.environ.get("REPRO_THING")
    """
    assert codes(source, relpath="src/repro/envvars.py") == []
    assert codes(source, relpath=SIM) == ["RPL004"]


# -- RPL005: float reductions over unordered iteration ------------------------


def test_rpl005_flags_sum_over_sets():
    assert (
        codes(
            """\
            import math
            a = sum({x.rate for x in items})
            b = sum(set(values))
            c = math.fsum(x for x in frozenset(values))
            """
        )
        == ["RPL005", "RPL005", "RPL005"]
    )


def test_rpl005_flags_numpy_reducers():
    assert (
        codes(
            """\
            import numpy as np
            a = np.sum({1.0, 2.0})
            """
        )
        == ["RPL005"]
    )


def test_rpl005_allows_ordered_reductions():
    assert (
        codes(
            """\
            import math
            a = sum(sorted({x.rate for x in items}))
            b = sum(values)
            c = sum(x.rate for x in events)
            d = math.fsum([1.0, 2.0])
            e = len({x for x in items})
            """
        )
        == []
    )


# -- RPL006: unregistered envvars reads ---------------------------------------


def test_rpl006_flags_unregistered_names():
    assert (
        codes(
            """\
            from repro import envvars
            a = envvars.get("REPRO_NOT_A_THING")
            b = envvars.get_flag("REPRO_TYPOED_FLAG")
            """,
            relpath=OBS,
        )
        == ["RPL006", "RPL006"]
    )


def test_rpl006_allows_registered_names():
    assert (
        codes(
            """\
            from repro import envvars
            a = envvars.get("REPRO_HAZARD_BACKEND")
            b = envvars.get_flag("REPRO_TRACE_WORKERS")
            c = envvars.get_int("REPRO_SHARDS", 1)
            """,
            relpath=OBS,
        )
        == []
    )


def test_rpl006_resolves_module_constants():
    assert (
        codes(
            """\
            from repro import envvars
            ENV_NAME = "REPRO_NO_SUCH_VAR"
            a = envvars.get(ENV_NAME)
            """,
            relpath=OBS,
        )
        == ["RPL006"]
    )


def test_rpl006_skips_dynamic_names():
    assert (
        codes(
            """\
            from repro import envvars
            a = envvars.get("REPRO_" + suffix)
            """,
            relpath=OBS,
        )
        == []
    )


# -- RPL007: environment reads in simulation code -----------------------------


def test_rpl007_flags_env_reads_in_simulation_packages():
    source = """\
    from repro import envvars
    a = envvars.get_flag("REPRO_TRACE_WORKERS")
    """
    for package in ("simulate", "failures", "fleet", "core", "experiments"):
        relpath = "src/repro/%s/mod.py" % package
        assert codes(source, relpath=relpath) == ["RPL007"]


def test_rpl007_allows_the_boundary_and_the_runtime():
    source = """\
    from repro import envvars
    a = envvars.get("REPRO_HAZARD_BACKEND")
    """
    for relpath in (
        "src/repro/runconfig.py",
        "src/repro/cli.py",
        "src/repro/runtime/shard.py",
        OBS,
    ):
        assert codes(source, relpath=relpath) == []


# -- RPL901 / RPL902: generic hygiene ----------------------------------------


def test_rpl901_flags_mutable_defaults_everywhere():
    source = """\
    def f(a, b=[], c={}, d=set()):
        return a
    """
    assert codes(source, relpath="tools/helper.py") == [
        "RPL901",
        "RPL901",
        "RPL901",
    ]
    assert codes(source, relpath=SIM) == ["RPL901", "RPL901", "RPL901"]


def test_rpl901_allows_immutable_defaults():
    assert (
        codes(
            """\
            def f(a, b=None, c=(), d="x", e=0):
                return a
            """,
            relpath="tools/helper.py",
        )
        == []
    )


def test_rpl902_flags_bare_except():
    assert (
        codes(
            """\
            try:
                work()
            except:
                pass
            """,
            relpath="tools/helper.py",
        )
        == ["RPL902"]
    )


def test_rpl902_allows_typed_except():
    assert (
        codes(
            """\
            try:
                work()
            except (OSError, ValueError):
                pass
            except Exception:
                raise
            """,
            relpath="tools/helper.py",
        )
        == []
    )
