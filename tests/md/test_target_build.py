"""The C unit is built for the host's CPU, and that changes no head.

The provider adds ``-march=native`` to its IEEE flags wherever the
compiler names the target the flag resolves to (``_cc_impl.target``),
and keys the build cache by that target.  Neither flag set lets the
compiler reassociate a sum or contract a multiply-add, so the
host-target library must end every force route on the baseline
library's digest heads: the two are built here side by side and swapped
under one running provider.
"""

import shutil

import pytest

import repro.md.kernels as kernels_module
import repro.md.kernels.compiled as compiled_module
from repro.md import RunConfig
from repro.md.kernels import _cc_impl
from repro.md.kernels.compiled import (
    _smoke_test,
    compiled_available,
    resolve_provider,
)
from repro.observability.telemetry.provenance import host_facts
from repro.reliability.certify import DigestRecorder
from repro.suite import get_benchmark

needs_compiled = pytest.mark.skipif(
    not compiled_available(),
    reason="no compiled provider (no working C compiler)",
)

#: Every force route at a size the list builds take: lj above the
#: all-pairs limit (link cells, rebuilds, lj_half), eam (the fused EAM
#: sweeps and the inner rows), rhodo (charmm_terms, brute_csr, the PPPM
#: mesh kernels), tersoff (tersoff_full over a full list), chute (a
#: full list through pair_geom) and chain (lj_half over a list with
#: exclusions).
RUNS = {
    "lj": 1000, "eam": 500, "rhodo": 300, "tersoff": 216, "chute": 200,
    "chain": 200,
}


def _fresh_provider(monkeypatch):
    """Resolve the provider again on its next use (``$CC`` and the
    cache directory are read then); monkeypatch restores the old one."""
    monkeypatch.setattr(compiled_module, "_resolution", None)
    monkeypatch.setattr(kernels_module, "_warned_fallbacks", set())


def _head(name: str, atoms: int) -> str:
    sim = get_benchmark(name).build(atoms)
    sim.set_backend("compiled")
    assert sim.backend.fallback is None, sim.backend.fallback
    recorder = DigestRecorder(every=2)
    try:
        sim.run(RunConfig(10, digest=recorder))
        recorder.finalize(sim)
    finally:
        sim.close()
    return recorder.chain.head


@needs_compiled
def test_baseline_and_host_target_builds_end_on_the_same_heads(
    tmp_path, monkeypatch
):
    """Both builds into one empty cache — two libraries — each passes
    the smoke test, and with either one's instances in the running
    provider every route ends on the same digest head."""
    cc = _cc_impl._find_compiler()
    if _cc_impl.target(cc) is None:
        pytest.skip(f"{cc} resolves no target for -march=native here")
    monkeypatch.setenv(_cc_impl.CACHE_ENV_VAR, str(tmp_path))
    with pytest.MonkeyPatch.context() as baseline:
        baseline.setattr(_cc_impl, "target", lambda cc: None)
        builds = {"baseline": _cc_impl.CcProvider()}
    builds["target"] = _cc_impl.CcProvider()
    assert len(list(tmp_path.glob("repro_kernels_*.so"))) == 2
    for build in builds.values():
        _smoke_test(build)

    running, _ = resolve_provider()
    heads = {}
    for label, build in builds.items():
        with pytest.MonkeyPatch.context() as swap:
            for key, fn in build.bound.items():
                swap.setitem(running.bound, key, fn)
            heads[label] = {name: _head(name, n) for name, n in RUNS.items()}
    assert heads["target"] == heads["baseline"]


def test_hosts_with_different_targets_key_different_libraries(monkeypatch):
    """A cache shared by two hosts holds one library per resolved
    target, though both pass the same flags; without a target the
    flags are the IEEE set alone."""
    cc = _cc_impl._find_compiler() or "cc"
    paths = set()
    for cpu in ("-march=skylake-avx512 -mavx512f", "-march=haswell -mavx2"):
        monkeypatch.setattr(_cc_impl, "target", lambda cc, cpu=cpu: cpu)
        assert _cc_impl.cflags(cc) == (*_cc_impl._CFLAGS, "-march=native")
        paths.add(_cc_impl._library_path(cc, _cc_impl.cflags(cc)))
    monkeypatch.setattr(_cc_impl, "target", lambda cc: None)
    assert _cc_impl.cflags(cc) == _cc_impl._CFLAGS
    paths.add(_cc_impl._library_path(cc, _cc_impl.cflags(cc)))
    assert len(paths) == 3


def _fake_cc(tmp_path, body: str):
    """An executable ``$CC`` in ``tmp_path`` that logs its arguments to
    ``cc.log`` and then runs ``body``."""
    script = tmp_path / "fake-cc"
    log = tmp_path / "cc.log"
    script.write_text(f'#!/bin/sh\necho "$@" >> "{log}"\n{body}\n')
    script.chmod(0o755)
    return str(script), log


@needs_compiled
def test_a_compiler_that_rejects_the_flag_builds_the_baseline(
    tmp_path, monkeypatch
):
    """A nonzero probe means no target flag: the provider builds with
    the IEEE flags alone, flag for flag, and passes its smoke test, and
    the host stamp reports no target."""
    real = shutil.which(_cc_impl._find_compiler())
    cc, log = _fake_cc(tmp_path, (
        'for arg in "$@"; do\n'
        '  if [ "$arg" = -march=native ]; then\n'
        '    echo "error: unrecognized -march=native" >&2; exit 1\n'
        '  fi\n'
        'done\n'
        f'exec "{real}" "$@"'
    ))
    monkeypatch.setenv("CC", cc)
    monkeypatch.setenv(_cc_impl.CACHE_ENV_VAR, str(tmp_path / "cache"))
    _fresh_provider(monkeypatch)
    provider, reason = resolve_provider()
    assert reason is None and provider is not None
    assert _cc_impl.target(cc) is None
    facts = host_facts()
    assert facts["cc_target"] is None
    assert facts["cflags"] == list(_cc_impl._CFLAGS)
    (build,) = [
        words for words in map(str.split, log.read_text().splitlines())
        if "-o" in words
    ]
    assert build[: len(_cc_impl._CFLAGS)] == list(_cc_impl._CFLAGS)
    assert not any(flag.startswith("-march") for flag in build)


#: What ``clang -march=native -### -x c -c /dev/null`` prints (abridged):
#: the version banner, then the quoted ``-cc1`` line with the host's CPU.
_CLANG_LISTING = """\
clang version 14.0.6
Target: x86_64-pc-linux-gnu
Thread model: posix
InstalledDir: /usr/bin
 "/usr/lib/llvm-14/bin/clang" "-cc1" "-triple" "x86_64-pc-linux-gnu" \
"-emit-obj" "-main-file-name" "null" "-mrelocation-model" "pic" \
"-mframe-pointer=all" "-target-cpu" "skylake-avx512" "-target-feature" \
"+avx512f" "-target-feature" "-avx512er" "-tune-cpu" "generic" \
"-resource-dir" "/usr/lib/llvm-14/lib/clang/14.0.6" \
"-fdebug-compilation-dir=/home/someone/work" "-o" "null.o" "-x" "c" "/dev/null"
"""


def test_the_target_is_read_from_gcc_and_clang_listings(tmp_path):
    """The probe keeps the target options of the compiler-proper line
    and no path: gcc's expanded ``-march=<cpu>`` (the same text from
    two dry runs, whose temporary names differ), clang's
    ``-target-cpu`` and ``-target-feature`` list."""
    listing = tmp_path / "listing"
    listing.write_text(_CLANG_LISTING)
    clang, _ = _fake_cc(tmp_path, f'cat "{listing}" >&2')
    target = _cc_impl.target(clang)
    assert "-target-cpu skylake-avx512" in target
    assert "-target-feature +avx512f -target-feature -avx512er" in target
    assert "/" not in target
    cc = _cc_impl._find_compiler()
    if cc is not None and _cc_impl.target(cc) is not None:
        once, again = (_cc_impl.target.__wrapped__(cc) for _ in range(2))
        assert once == again and "/" not in once
        assert any(
            word.startswith("-march=") and word != "-march=native"
            for word in once.split()
        ) or "-target-cpu" in once.split()
