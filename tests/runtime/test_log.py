"""Logging configuration helper and the telemetry warning tee."""

from __future__ import annotations

import argparse
import logging
import os

import pytest

from repro.runtime import log, telemetry


@pytest.fixture(autouse=True)
def _restore_level():
    logger = logging.getLogger(log.ROOT)
    saved = logger.level
    yield
    logger.setLevel(saved)


class _EveryVariableSays(dict):
    """An environment in which every variable holds ``error``."""

    def __contains__(self, key):
        return True

    def __getitem__(self, key):
        return "error"

    def get(self, key, default=None):
        return "error"


class TestConfigure:
    def test_get_logger_namespacing(self):
        assert log.get_logger("core.ipc_native").name == "repro.core.ipc_native"
        assert log.get_logger("repro.spice").name == "repro.spice"

    def test_idempotent_handler_install(self):
        logger = log.configure()
        log.configure()
        ours = [h for h in logger.handlers
                if getattr(h, "_repro_handler", False)]
        assert len(ours) == 1

    def test_verbosity_mapping(self):
        assert log.configure(verbose=0).level == logging.WARNING
        assert log.configure(verbose=1).level == logging.INFO
        assert log.configure(verbose=2).level == logging.DEBUG
        assert log.configure(level="ERROR").level == logging.ERROR
        with pytest.raises(ValueError):
            log.configure(level="NOPE")

    def test_cli_levels_ignore_the_environment(self):
        """``-v``, ``-vv`` and ``--log-level NAME`` resolve as README
        states even where every environment variable reads ``error``."""
        parser = argparse.ArgumentParser()
        log.add_cli_flags(parser)
        cases = {(): logging.WARNING, ("-v",): logging.INFO,
                 ("-vv",): logging.DEBUG,
                 ("--log-level", "critical"): logging.CRITICAL,
                 ("-vv", "--log-level", "warning"): logging.WARNING}
        real = os.environ
        os.environ = _EveryVariableSays()
        try:
            resolved = {argv: log._resolve_level(args.log_level,
                                                 args.verbose)
                        for argv in cases
                        for args in [parser.parse_args(list(argv))]}
        finally:
            os.environ = real
        assert resolved == cases

    def test_cli_flags_round_trip(self):
        parser = argparse.ArgumentParser()
        log.add_cli_flags(parser)
        args = parser.parse_args(["-vv"])
        assert log.configure_from_args(args).level == logging.DEBUG


class TestWarningTee:
    def test_warnings_reach_the_run_report(self):
        handler = log.capture_warnings()
        assert log.capture_warnings() is handler    # installed once
        try:
            with telemetry.collecting():
                log.get_logger("spice").warning("gmin fallback engaged")
                log.get_logger("spice").info("not captured")
                assert telemetry.warnings() == \
                    ["repro.spice: gmin fallback engaged"]
        finally:
            logging.getLogger(log.ROOT).removeHandler(handler)
