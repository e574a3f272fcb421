"""Tests for the process-wide glibc heap policy (repro.md.heap)."""

import ctypes
import platform

import pytest

from repro.md import heap


def test_user_chosen_glibc_tunables_win(monkeypatch):
    monkeypatch.setenv("MALLOC_MMAP_THRESHOLD_", "1048576")
    monkeypatch.setattr(
        ctypes, "CDLL", lambda *_: pytest.fail("mallopt must not be looked up")
    )
    assert heap._apply() is False


def test_missing_mallopt_is_a_no_op(monkeypatch):
    monkeypatch.delenv("MALLOC_MMAP_THRESHOLD_", raising=False)
    monkeypatch.delenv("MALLOC_TRIM_THRESHOLD_", raising=False)
    monkeypatch.setattr(ctypes, "CDLL", lambda *_: object())
    assert heap._apply() is False


def test_applied_once_and_remembered(monkeypatch):
    calls = []
    monkeypatch.setattr(heap, "_applied", None)
    monkeypatch.setattr(heap, "_apply", lambda: calls.append(1) or True)
    assert heap.keep_freed_heap() is True
    assert heap.keep_freed_heap() is True
    assert calls == [1]


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="mallopt thresholds are glibc's"
)
def test_glibc_accepts_both_thresholds(monkeypatch):
    monkeypatch.delenv("MALLOC_MMAP_THRESHOLD_", raising=False)
    monkeypatch.delenv("MALLOC_TRIM_THRESHOLD_", raising=False)
    assert heap._apply() is True
