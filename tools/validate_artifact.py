#!/usr/bin/env python3
"""validate_artifact: format validator for the artifacts ujoin emits.

One pure-stdlib checker for the three machine-read outputs.  It
re-validates the bytes from the outside, with no ujoin code involved;
ctest, tools/check.sh and the smoke scripts run it against files the test
suite and the CLI produce, so a silent drift in a C++ renderer fails a gate
even if every C++ test still passes.  The format is stated, never sniffed:
each gate asserts which artifact it was given.

  exposition     Prometheus text exposition (version 0.0.4), rendered by
                 src/obs/exposition.h:
                   * every sample belongs to a family announced by `# HELP`
                     and `# TYPE` lines, in that order, before its first
                     sample;
                   * metric and label names are well-formed; no duplicate
                     (name, labels) sample; values parse as numbers;
                   * counter family names end in `_total`;
                   * histograms have `_bucket` samples with non-decreasing
                     cumulative counts, `le` bounds in strictly increasing
                     order, a terminal `le="+Inf"` bucket, and `_sum` /
                     `_count` samples with `_count` == the `+Inf` bucket.

  query_log      ujoin.query_log JSONL (src/obs/query_log.h), per line:
                   * one JSON object with the exact top-level key order
                     (key order is part of the schema: records are
                     byte-comparable); schema and schema_version pinned;
                   * request_id equals splitmix64((connection << 32) ^ seq),
                     recomputed here with explicit 64-bit masking, so the
                     mixing constants are pinned by an independent
                     implementation;
                   * length_band is the bit width of query_length;
                   * funnel stages appear in cascade order with
                     survived <= entered, the stages chain (freq_distance
                     enters what qgram survived, cdf_bound enters what
                     freq_distance survived, verify enters at most what
                     cdf_bound survived), and candidates == qgram survivors;
                   * counts are non-negative integers, status is "ok" or
                     "error", error records report zero hits, and timing
                     fields are non-negative.

  flight_record  ujoin.flight_record document (src/obs/flight_recorder.h),
                 dumped at orderly exit, from the crash handler, and on
                 watchdog stall captures by an async-signal-safe serializer:
                   * exact top-level key order; schema and version pinned;
                   * reason is "manual", "crash", or "watchdog"; exactly the
                     "crash" reason carries a non-zero delivering signal;
                   * build holds a non-empty compiler and a known simd_isa;
                   * the registry lists every event kind in registry order
                     with non-negative totals; dropped_events >= 0;
                   * threads_registered matches the per-thread list, slots
                     are unique, ascending, and within capacity;
                   * per thread: at most kEventsPerThread events, each with
                     the exact event key order, a known kind, and strictly
                     increasing seq within (recorded - capacity, recorded],
                     the ring's visible window.  A dump taken under live
                     writers may skip torn events, so gaps are legal;
                     regressions are not.

Wall-clock fields (query-log timing, flight ts_ns/os_tid) are checked for
type and sign only, never for value: they are determinism tier 1.

Usage:
  tools/validate_artifact.py FORMAT FILE     validate FILE ('-' = stdin)
  tools/validate_artifact.py --self-test [FORMAT]

Exit status: 0 valid, 1 invalid (or self-test failure), 2 usage or I/O.
"""

from __future__ import annotations

import json
import re
import sys

# ---------------------------------------------------------------------------
# Shared field helpers
# ---------------------------------------------------------------------------


def _int_field(obj: dict, key: str, errors: list[str],
               where: str = "") -> int:
    value = obj.get(key)
    # bool is an int subclass in Python; reject it explicitly.
    if not isinstance(value, int) or isinstance(value, bool):
        errors.append(f"{where}{key}: expected integer, got {value!r}")
        return 0
    return value


def _has_keys(obj, keys: list[str]) -> bool:
    """True when `obj` is a JSON object with exactly `keys`, in order."""
    return isinstance(obj, dict) and list(obj.keys()) == keys


def _keys_of(obj) -> object:
    return list(obj.keys()) if isinstance(obj, dict) else obj


def _load_object(text: str, what: str, keys: list[str]):
    """Parses one JSON object with the exact top-level key order; returns
    (object, None) or (None, [error])."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        return None, [f"not valid JSON: {e}"]
    if not isinstance(obj, dict):
        return None, [f"{what} is not a JSON object"]
    if list(obj.keys()) != keys:
        return None, [f"top-level key order mismatch: got {list(obj.keys())}"]
    return obj, None


def _check_schema(rec: dict, name: str, errors: list[str]) -> None:
    if rec["schema"] != name:
        errors.append(f"schema: expected {name!r}, got {rec['schema']!r}")
    if rec["schema_version"] != 1:
        errors.append(f"schema_version: expected 1, "
                      f"got {rec['schema_version']!r}")


# ---------------------------------------------------------------------------
# exposition
# ---------------------------------------------------------------------------

METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)(?:\s+(?P<timestamp>\S+))?$")
LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _family_of(sample_name: str, types: dict) -> str:
    """Maps a sample name to its family: histogram samples drop the
    _bucket/_sum/_count suffix when the base family is a histogram."""
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if types.get(base) == "histogram":
                return base
    return sample_name


def _parse_le(raw: str):
    if raw == "+Inf":
        return float("inf")
    try:
        return float(raw)
    except ValueError:
        return None


def validate_exposition(text: str) -> list[str]:
    problems = []
    helps = {}
    types = {}
    seen_samples = set()
    # family -> list of (le, cumulative value, line) in document order
    hist_buckets = {}
    hist_sum = {}
    hist_count = {}
    family_sampled = set()

    for lineno, line in enumerate(text.split("\n"), 1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line[len("# HELP "):].split(None, 1)
            if not parts:
                problems.append(f"line {lineno}: HELP line without a name")
                continue
            name = parts[0]
            if name in helps:
                problems.append(f"line {lineno}: duplicate HELP for '{name}'")
            if name in family_sampled:
                problems.append(
                    f"line {lineno}: HELP for '{name}' after its samples")
            helps[name] = parts[1] if len(parts) > 1 else ""
            continue
        if line.startswith("# TYPE "):
            parts = line[len("# TYPE "):].split()
            if len(parts) != 2:
                problems.append(f"line {lineno}: malformed TYPE line")
                continue
            name, kind = parts
            if kind not in ("counter", "gauge", "histogram", "summary",
                            "untyped"):
                problems.append(
                    f"line {lineno}: unknown metric type '{kind}'")
            if name in types:
                problems.append(f"line {lineno}: duplicate TYPE for '{name}'")
            if name in family_sampled:
                problems.append(
                    f"line {lineno}: TYPE for '{name}' after its samples")
            if name not in helps:
                problems.append(
                    f"line {lineno}: TYPE for '{name}' without preceding "
                    f"HELP")
            types[name] = kind
            if kind == "counter" and not name.endswith("_total"):
                problems.append(
                    f"line {lineno}: counter '{name}' does not end in "
                    f"'_total'")
            continue
        if line.startswith("#"):
            continue  # other comments are legal

        m = SAMPLE_RE.match(line)
        if m is None:
            problems.append(f"line {lineno}: unparsable sample line: {line}")
            continue
        name = m.group("name")
        if not METRIC_NAME_RE.match(name):
            problems.append(f"line {lineno}: bad metric name '{name}'")
            continue
        labels = {}
        raw_labels = m.group("labels")
        if raw_labels:
            for lm in LABEL_RE.finditer(raw_labels):
                key = lm.group(1)
                if not LABEL_NAME_RE.match(key):
                    problems.append(
                        f"line {lineno}: bad label name '{key}'")
                if key in labels:
                    problems.append(
                        f"line {lineno}: duplicate label '{key}'")
                labels[key] = lm.group(2)
            leftovers = re.sub(r"[,\s]", "", raw_labels)
            matched = "".join(
                lm.group(0) for lm in LABEL_RE.finditer(raw_labels))
            if len(leftovers) != len(re.sub(r"[,\s]", "", matched)):
                problems.append(
                    f"line {lineno}: malformed label set "
                    f"'{{{raw_labels}}}'")
        try:
            value = float(m.group("value"))
        except ValueError:
            problems.append(
                f"line {lineno}: unparsable value "
                f"'{m.group('value')}' for '{name}'")
            continue

        key = (name, tuple(sorted(labels.items())))
        if key in seen_samples:
            problems.append(
                f"line {lineno}: duplicate sample for '{name}' "
                f"{dict(labels)}")
        seen_samples.add(key)

        family = _family_of(name, types)
        family_sampled.add(family)
        if family not in types:
            problems.append(
                f"line {lineno}: sample '{name}' without a preceding TYPE "
                f"for '{family}'")
        if family not in helps:
            problems.append(
                f"line {lineno}: sample '{name}' without a preceding HELP "
                f"for '{family}'")

        if types.get(family) == "histogram":
            if name.endswith("_bucket"):
                if "le" not in labels:
                    problems.append(
                        f"line {lineno}: histogram bucket without an 'le' "
                        f"label")
                    continue
                le = _parse_le(labels["le"])
                if le is None:
                    problems.append(
                        f"line {lineno}: unparsable le "
                        f"'{labels['le']}'")
                    continue
                hist_buckets.setdefault(family, []).append(
                    (le, value, lineno))
            elif name.endswith("_sum"):
                hist_sum[family] = value
            elif name.endswith("_count"):
                hist_count[family] = value

    for family, kind in types.items():
        if kind != "histogram":
            continue
        buckets = hist_buckets.get(family, [])
        if not buckets:
            problems.append(f"histogram '{family}' has no _bucket samples")
            continue
        if buckets[-1][0] != float("inf"):
            problems.append(
                f"histogram '{family}' does not end with an le=\"+Inf\" "
                f"bucket")
        prev_le = None
        prev_value = None
        for le, value, lineno in buckets:
            if prev_le is not None and le <= prev_le:
                problems.append(
                    f"line {lineno}: histogram '{family}' bucket bounds not "
                    f"strictly increasing")
            if prev_value is not None and value < prev_value:
                problems.append(
                    f"line {lineno}: histogram '{family}' cumulative bucket "
                    f"counts decrease")
            prev_le, prev_value = le, value
        if family not in hist_count:
            problems.append(f"histogram '{family}' is missing _count")
        elif buckets[-1][0] == float("inf") and \
                hist_count[family] != buckets[-1][1]:
            problems.append(
                f"histogram '{family}': _count ({hist_count[family]:g}) != "
                f"le=\"+Inf\" bucket ({buckets[-1][1]:g})")
        if family not in hist_sum:
            problems.append(f"histogram '{family}' is missing _sum")

    return problems


# ---------------------------------------------------------------------------
# query_log
# ---------------------------------------------------------------------------

MASK64 = (1 << 64) - 1

QUERY_LOG_KEYS = [
    "schema", "schema_version", "request_id", "connection", "seq",
    "query_length", "length_band", "funnel", "candidates", "verify_worlds",
    "budget_fallbacks", "deadline_fallbacks", "hits", "status", "inexact",
    "timing",
]
FUNNEL_STAGES = ["qgram", "freq_distance", "cdf_bound", "verify"]
STAGE_KEYS = ["entered", "survived"]
TIMING_KEYS = ["total_ns", "verify_ns"]


def request_id(connection: int, seq: int) -> int:
    """splitmix64 over (connection << 32) ^ seq, as in src/obs/query_log.h."""
    x = ((connection << 32) ^ seq) & MASK64
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return (x ^ (x >> 31)) & MASK64


def validate_query_log_record(line: str) -> list[str]:
    rec, errors = _load_object(line, "line", QUERY_LOG_KEYS)
    if errors:
        return errors
    errors = []
    _check_schema(rec, "ujoin.query_log", errors)

    connection = _int_field(rec, "connection", errors)
    seq = _int_field(rec, "seq", errors)
    rid = _int_field(rec, "request_id", errors)
    if connection < 0 or seq < 1:
        errors.append(f"attribution out of range: connection={connection} "
                      f"(>= 0), seq={seq} (>= 1)")
    expected_rid = request_id(connection, seq)
    if rid != expected_rid:
        errors.append(f"request_id mismatch: got {rid}, expected "
                      f"{expected_rid} for (connection={connection}, "
                      f"seq={seq})")

    query_length = _int_field(rec, "query_length", errors)
    length_band = _int_field(rec, "length_band", errors)
    if query_length < 0:
        errors.append(f"query_length is negative: {query_length}")
    elif length_band != query_length.bit_length():
        errors.append(f"length_band mismatch: got {length_band}, expected "
                      f"{query_length.bit_length()} for query_length "
                      f"{query_length}")

    funnel = rec["funnel"]
    stages: dict[str, tuple[int, int]] = {}
    if not _has_keys(funnel, FUNNEL_STAGES):
        errors.append(f"funnel stage order mismatch: got {_keys_of(funnel)!r}")
    else:
        for stage, counts in funnel.items():
            if not _has_keys(counts, STAGE_KEYS):
                errors.append(f"funnel.{stage}: expected keys {STAGE_KEYS}")
                continue
            entered = _int_field(counts, "entered", errors,
                                 where=f"funnel.{stage}.")
            survived = _int_field(counts, "survived", errors,
                                  where=f"funnel.{stage}.")
            if entered < 0 or survived < 0 or survived > entered:
                errors.append(f"funnel.{stage}: need 0 <= survived <= "
                              f"entered, got entered={entered} "
                              f"survived={survived}")
            stages[stage] = (entered, survived)
    if len(stages) == len(FUNNEL_STAGES):
        # The cascade chains: each filter enters what the previous one
        # passed (a disabled filter is recorded as a pass-through).
        # Verification may enter fewer — CDF-accepted candidates and
        # budget/deadline fallbacks are decided without verifying.
        if stages["freq_distance"][0] != stages["qgram"][1]:
            errors.append(f"funnel chain broken: freq_distance.entered "
                          f"{stages['freq_distance'][0]} != qgram.survived "
                          f"{stages['qgram'][1]}")
        if stages["cdf_bound"][0] != stages["freq_distance"][1]:
            errors.append(f"funnel chain broken: cdf_bound.entered "
                          f"{stages['cdf_bound'][0]} != "
                          f"freq_distance.survived "
                          f"{stages['freq_distance'][1]}")
        if stages["verify"][0] > stages["cdf_bound"][1]:
            errors.append(f"funnel chain broken: verify.entered "
                          f"{stages['verify'][0]} > cdf_bound.survived "
                          f"{stages['cdf_bound'][1]}")
        candidates = _int_field(rec, "candidates", errors)
        if candidates != stages["qgram"][1]:
            errors.append(f"candidates {candidates} != qgram survivors "
                          f"{stages['qgram'][1]}")

    for key in ("verify_worlds", "budget_fallbacks", "deadline_fallbacks",
                "hits"):
        if _int_field(rec, key, errors) < 0:
            errors.append(f"{key} is negative: {rec[key]}")

    status = rec["status"]
    if status not in ("ok", "error"):
        errors.append(f"status: expected 'ok' or 'error', got {status!r}")
    elif status == "error" and rec["hits"] != 0:
        errors.append(f"error record reports {rec['hits']} hits")
    if not isinstance(rec["inexact"], bool):
        errors.append(f"inexact: expected bool, got {rec['inexact']!r}")

    timing = rec["timing"]
    if not _has_keys(timing, TIMING_KEYS):
        errors.append(f"timing: expected keys {TIMING_KEYS}")
    else:
        for key in TIMING_KEYS:
            if _int_field(timing, key, errors, where="timing.") < 0:
                errors.append(f"timing.{key} is negative: {timing[key]}")
    return errors


def validate_query_log(text: str) -> list[str]:
    errors = []
    records = 0
    for lineno, line in enumerate(text.split("\n"), 1):
        if not line.strip():
            continue
        records += 1
        errors += [f"line {lineno}: {e}"
                   for e in validate_query_log_record(line.strip())]
    return errors if records else ["no records"]


# ---------------------------------------------------------------------------
# flight_record
# ---------------------------------------------------------------------------

FLIGHT_RECORD_KEYS = [
    "schema", "schema_version", "reason", "signal", "build",
    "dropped_events", "threads_registered", "registry", "threads",
]
BUILD_KEYS = ["compiler", "simd_isa"]
THREAD_KEYS = ["slot", "os_tid", "recorded", "events"]
EVENT_KEYS = ["seq", "ts_ns", "kind", "a", "b"]

# FlightEvent registry order (src/obs/flight_recorder.cc
# kFlightEventNames); the dump spells the registry in exactly this order.
EVENT_KINDS = [
    "wave_start", "wave_end", "probe_begin", "funnel_stage", "verify_begin",
    "query_begin", "query_end", "batch_boundary", "conn_open", "conn_close",
    "conn_idle_close", "serve_query", "stall_captured",
]
REASONS = ("manual", "crash", "watchdog")
SIMD_ISAS = ("sse2", "avx2", "neon", "scalar")

MAX_THREAD_SLOTS = 32    # FlightRecorder::kMaxThreadSlots
EVENTS_PER_THREAD = 128  # FlightRecorder::kEventsPerThread


def _validate_thread(thread, index: int, errors: list[str]) -> int:
    """Validates one per-thread entry; returns its slot (or -1)."""
    where = f"threads[{index}]"
    if not _has_keys(thread, THREAD_KEYS):
        errors.append(f"{where}: expected keys {THREAD_KEYS}, got "
                      f"{_keys_of(thread)!r}")
        return -1
    slot = _int_field(thread, "slot", errors, where=f"{where}.")
    if not 0 <= slot < MAX_THREAD_SLOTS:
        errors.append(f"{where}.slot out of range [0, {MAX_THREAD_SLOTS}): "
                      f"{slot}")
    if _int_field(thread, "os_tid", errors, where=f"{where}.") < 0:
        errors.append(f"{where}.os_tid is negative: {thread['os_tid']}")
    recorded = _int_field(thread, "recorded", errors, where=f"{where}.")
    if recorded < 0:
        errors.append(f"{where}.recorded is negative: {recorded}")

    events = thread["events"]
    if not isinstance(events, list):
        errors.append(f"{where}.events: expected list, got {events!r}")
        return slot
    if len(events) > EVENTS_PER_THREAD:
        errors.append(f"{where}.events: {len(events)} events exceed the "
                      f"ring capacity {EVENTS_PER_THREAD}")
    if len(events) > recorded:
        errors.append(f"{where}.events: {len(events)} events but only "
                      f"{recorded} recorded")
    window_lo = max(0, recorded - EVENTS_PER_THREAD)
    prev_seq = window_lo  # seq is 1-based; the window is (lo, recorded]
    prev_ts = -1
    for j, event in enumerate(events):
        ewhere = f"{where}.events[{j}]"
        if not _has_keys(event, EVENT_KEYS):
            errors.append(f"{ewhere}: expected keys {EVENT_KEYS}")
            continue
        seq = _int_field(event, "seq", errors, where=f"{ewhere}.")
        if seq <= prev_seq:
            errors.append(f"{ewhere}.seq not strictly increasing within "
                          f"the ring window: {seq} after {prev_seq}")
        if seq > recorded:
            errors.append(f"{ewhere}.seq {seq} exceeds recorded {recorded}")
        prev_seq = max(prev_seq, seq)
        ts = _int_field(event, "ts_ns", errors, where=f"{ewhere}.")
        if ts < 0:
            errors.append(f"{ewhere}.ts_ns is negative: {ts}")
        if ts < prev_ts:
            errors.append(f"{ewhere}.ts_ns regresses: {ts} after {prev_ts}")
        prev_ts = max(prev_ts, ts)
        if event["kind"] not in EVENT_KINDS:
            errors.append(f"{ewhere}.kind unknown: {event['kind']!r}")
        _int_field(event, "a", errors, where=f"{ewhere}.")
        _int_field(event, "b", errors, where=f"{ewhere}.")
    return slot


def validate_flight_record(text: str) -> list[str]:
    if not text.strip():
        return ["empty document"]
    rec, errors = _load_object(text, "document", FLIGHT_RECORD_KEYS)
    if errors:
        return errors
    errors = []
    _check_schema(rec, "ujoin.flight_record", errors)

    reason = rec["reason"]
    signal = _int_field(rec, "signal", errors)
    if reason not in REASONS:
        errors.append(f"reason: expected one of {REASONS}, got {reason!r}")
    elif reason == "crash" and signal <= 0:
        errors.append(f"crash record without a delivering signal: {signal}")
    elif reason != "crash" and signal != 0:
        errors.append(f"non-crash record carries signal {signal}")

    build = rec["build"]
    if not _has_keys(build, BUILD_KEYS):
        errors.append(f"build: expected keys {BUILD_KEYS}")
    else:
        if not isinstance(build["compiler"], str) or not build["compiler"]:
            errors.append(f"build.compiler: expected non-empty string, "
                          f"got {build['compiler']!r}")
        if build["simd_isa"] not in SIMD_ISAS:
            errors.append(f"build.simd_isa: expected one of {SIMD_ISAS}, "
                          f"got {build['simd_isa']!r}")

    if _int_field(rec, "dropped_events", errors) < 0:
        errors.append(f"dropped_events is negative: {rec['dropped_events']}")

    registry = rec["registry"]
    if not _has_keys(registry, EVENT_KINDS):
        errors.append(f"registry key order mismatch: got "
                      f"{_keys_of(registry)!r}")
    else:
        for kind in EVENT_KINDS:
            if _int_field(registry, kind, errors, where="registry.") < 0:
                errors.append(f"registry.{kind} is negative: "
                              f"{registry[kind]}")

    threads = rec["threads"]
    threads_registered = _int_field(rec, "threads_registered", errors)
    if not isinstance(threads, list):
        errors.append(f"threads: expected list, got {threads!r}")
        return errors
    if len(threads) != min(threads_registered, MAX_THREAD_SLOTS):
        errors.append(f"threads: {len(threads)} entries for "
                      f"threads_registered {threads_registered}")
    prev_slot = -1
    for i, thread in enumerate(threads):
        slot = _validate_thread(thread, i, errors)
        if slot <= prev_slot:
            errors.append(f"threads[{i}].slot not strictly increasing: "
                          f"{slot} after {prev_slot}")
        prev_slot = max(prev_slot, slot)
    return errors


VALIDATORS = {
    "exposition": validate_exposition,
    "query_log": validate_query_log,
    "flight_record": validate_flight_record,
}

# ---------------------------------------------------------------------------
# Self-test: one table of (format, case, document, expected error)
# ---------------------------------------------------------------------------

_GOOD_PAGE = """\
# HELP ujoin_probes_total probes executed
# TYPE ujoin_probes_total counter
ujoin_probes_total 200
# HELP ujoin_threads worker threads used
# TYPE ujoin_threads gauge
ujoin_threads 4
# HELP ujoin_filter_funnel_candidates_total candidates per stage
# TYPE ujoin_filter_funnel_candidates_total counter
ujoin_filter_funnel_candidates_total{stage="qgram",edge="entered"} 6305
ujoin_filter_funnel_candidates_total{stage="qgram",edge="survived"} 108
# HELP ujoin_verify_latency_ns wall time of one verification
# TYPE ujoin_verify_latency_ns histogram
ujoin_verify_latency_ns_bucket{le="0"} 0
ujoin_verify_latency_ns_bucket{le="1023"} 2
ujoin_verify_latency_ns_bucket{le="2047"} 5
ujoin_verify_latency_ns_bucket{le="+Inf"} 5
ujoin_verify_latency_ns_sum 6000
ujoin_verify_latency_ns_count 5
"""

_HIST = "# HELP ujoin_h h\n# TYPE ujoin_h histogram\n"
_COUNTER = "# HELP ujoin_x_total x\n# TYPE ujoin_x_total counter\n"


def _good_record() -> dict:
    return {
        "schema": "ujoin.query_log",
        "schema_version": 1,
        "request_id": request_id(3, 7),
        "connection": 3,
        "seq": 7,
        "query_length": 22,
        "length_band": 5,
        "funnel": {
            "qgram": {"entered": 49, "survived": 4},
            "freq_distance": {"entered": 4, "survived": 4},
            "cdf_bound": {"entered": 4, "survived": 3},
            "verify": {"entered": 2, "survived": 2},
        },
        "candidates": 4,
        "verify_worlds": 77250,
        "budget_fallbacks": 0,
        "deadline_fallbacks": 0,
        "hits": 3,
        "status": "ok",
        "inexact": False,
        "timing": {"total_ns": 160389952, "verify_ns": 157542480},
    }


def _good_document() -> dict:
    def event(seq, ts, kind, a, b):
        return {"seq": seq, "ts_ns": ts, "kind": kind, "a": a, "b": b}
    registry = dict.fromkeys(EVENT_KINDS, 0)
    registry.update(wave_start=2, wave_end=2, probe_begin=3, verify_begin=1)
    return {
        "schema": "ujoin.flight_record",
        "schema_version": 1,
        "reason": "manual",
        "signal": 0,
        "build": {"compiler": "12.2.0", "simd_isa": "avx2"},
        "dropped_events": 0,
        "threads_registered": 2,
        "registry": registry,
        "threads": [
            {"slot": 0, "os_tid": 4242, "recorded": 4, "events": [
                event(1, 10, "wave_start", 0, 2),
                event(2, 20, "probe_begin", 0, 0),
                event(3, 30, "verify_begin", 64, 0),
                event(4, 40, "wave_end", 0, 0)]},
            {"slot": 1, "os_tid": 4243, "recorded": 2, "events": [
                event(1, 15, "probe_begin", 1, 1),
                event(2, 25, "probe_begin", 1, 3)]},
        ],
    }


_DELETE = object()


def _edit(make, edits=(), swap=None) -> str:
    """Compact JSON of a fresh make() document with each (dotted path,
    value) edit applied (_DELETE removes the key), and optionally two
    top-level keys swapped in place (key order is part of both schemas)."""
    doc = make()
    for path, value in dict(edits).items():
        *parents, last = path.split(".")
        target = doc
        for key in parents:
            target = target[int(key)] if isinstance(target, list) else \
                target[key]
        if isinstance(target, list):
            last = int(last)
        if value is _DELETE:
            del target[last]
        else:
            target[last] = value
    if swap is not None:
        items = list(doc.items())
        items[swap[0]], items[swap[1]] = items[swap[1]], items[swap[0]]
        doc = dict(items)
    return json.dumps(doc, separators=(",", ":"))


# An error record: funnel zeroed, no hits.
_ERROR_RECORD = {
    "request_id": request_id(1, 2), "connection": 1, "seq": 2,
    "query_length": 0, "length_band": 0,
    **{f"funnel.{stage}": {"entered": 0, "survived": 0}
       for stage in FUNNEL_STAGES},
    "candidates": 0, "verify_worlds": 0, "hits": 0, "status": "error",
    "timing": {"total_ns": 0, "verify_ns": 0},
}

# A ring that wrapped: only the visible window is present, seqs sit in
# (recorded - capacity, recorded], and gaps (torn events skipped by a live
# dump) are legal.
_WRAPPED_RING = {
    "threads.0.recorded": 500,
    "threads.0.events": [
        {"seq": 480, "ts_ns": 100, "kind": "probe_begin", "a": 0, "b": 0},
        {"seq": 482, "ts_ns": 110, "kind": "verify_begin", "a": 8, "b": 0},
        {"seq": 500, "ts_ns": 120, "kind": "wave_end", "a": 0, "b": 0},
    ],
}

# Every bad case names the error it must produce; None means valid.
SELF_TEST_CASES = [
    ("exposition", "good page", _GOOD_PAGE, None),
    ("exposition", "sample without TYPE", "ujoin_x_total 1\n",
     "without a preceding TYPE"),
    ("exposition", "duplicate sample",
     _COUNTER + "ujoin_x_total 1\nujoin_x_total 1\n", "duplicate sample"),
    ("exposition", "counter without _total",
     "# HELP ujoin_x x\n# TYPE ujoin_x counter\nujoin_x 1\n",
     "does not end in '_total'"),
    ("exposition", "histogram without +Inf",
     _HIST + "ujoin_h_bucket{le=\"1\"} 1\nujoin_h_sum 1\nujoin_h_count 1\n",
     "le=\"+Inf\""),
    ("exposition", "cumulative counts decrease",
     _HIST + "ujoin_h_bucket{le=\"1\"} 3\nujoin_h_bucket{le=\"2\"} 2\n"
     "ujoin_h_bucket{le=\"+Inf\"} 3\nujoin_h_sum 1\nujoin_h_count 3\n",
     "cumulative bucket counts decrease"),
    ("exposition", "bucket bounds out of order",
     _HIST + "ujoin_h_bucket{le=\"2\"} 1\nujoin_h_bucket{le=\"1\"} 2\n"
     "ujoin_h_bucket{le=\"+Inf\"} 2\nujoin_h_sum 1\nujoin_h_count 2\n",
     "not strictly increasing"),
    ("exposition", "_count differs from +Inf bucket",
     _HIST + "ujoin_h_bucket{le=\"1\"} 1\nujoin_h_bucket{le=\"+Inf\"} 1\n"
     "ujoin_h_sum 1\nujoin_h_count 2\n", "_count"),
    ("exposition", "TYPE without HELP",
     "# TYPE ujoin_x_total counter\nujoin_x_total 1\n",
     "without preceding HELP"),
    ("exposition", "unparsable value", _COUNTER + "ujoin_x_total nope\n",
     "unparsable value"),

    ("query_log", "good record", _edit(_good_record), None),
    ("query_log", "bad request id",
     _edit(_good_record, {"request_id": (request_id(3, 7) + 1) & MASK64}),
     "request_id mismatch"),
    ("query_log", "bad length band",
     _edit(_good_record, {"length_band": 9}), "length_band mismatch"),
    ("query_log", "broken funnel chain",
     _edit(_good_record, {"funnel.freq_distance.entered": 5}),
     "funnel chain broken: freq_distance.entered 5"),
    ("query_log", "survivors exceed entered",
     _edit(_good_record, {"funnel.qgram.survived": 50}),
     "funnel.qgram: need 0 <= survived <= entered"),
    ("query_log", "candidates mismatch",
     _edit(_good_record, {"candidates": 5}), "candidates 5 != qgram"),
    ("query_log", "unknown status",
     _edit(_good_record, {"status": "slow"}), "status: expected"),
    ("query_log", "top-level key order", _edit(_good_record, swap=(3, 4)),
     "top-level key order mismatch"),
    ("query_log", "negative timing",
     _edit(_good_record, {"timing.total_ns": -1}),
     "timing.total_ns is negative"),
    ("query_log", "bool-typed count", _edit(_good_record, {"hits": True}),
     "hits: expected integer"),
    ("query_log", "not json", "{nope", "not valid JSON"),
    ("query_log", "error record", _edit(_good_record, _ERROR_RECORD), None),
    ("query_log", "error record with hits",
     _edit(_good_record, {**_ERROR_RECORD, "hits": 2}),
     "error record reports 2 hits"),

    ("flight_record", "good document", _edit(_good_document), None),
    ("flight_record", "wrong schema",
     _edit(_good_document, {"schema": "ujoin.query_log"}),
     "schema: expected 'ujoin.flight_record'"),
    ("flight_record", "top-level key order",
     _edit(_good_document, swap=(2, 3)), "top-level key order mismatch"),
    ("flight_record", "unknown reason",
     _edit(_good_document, {"reason": "panic"}), "reason: expected one of"),
    ("flight_record", "crash without signal",
     _edit(_good_document, {"reason": "crash"}),
     "crash record without a delivering signal"),
    ("flight_record", "crash with signal",
     _edit(_good_document, {"reason": "crash", "signal": 11}), None),
    ("flight_record", "manual with signal",
     _edit(_good_document, {"signal": 11}), "non-crash record carries"),
    ("flight_record", "unknown simd_isa",
     _edit(_good_document, {"build.simd_isa": "avx1024"}),
     "build.simd_isa: expected one of"),
    ("flight_record", "missing registry kind",
     _edit(_good_document, {"registry.serve_query": _DELETE}),
     "registry key order mismatch"),
    ("flight_record", "negative registry count",
     _edit(_good_document, {"registry.probe_begin": -1}),
     "registry.probe_begin is negative"),
    ("flight_record", "thread count mismatch",
     _edit(_good_document, {"threads_registered": 3}),
     "threads: 2 entries for threads_registered 3"),
    ("flight_record", "duplicate thread slot",
     _edit(_good_document, {"threads.1.slot": 0}),
     "threads[1].slot not strictly increasing"),
    ("flight_record", "seq not increasing",
     _edit(_good_document, {"threads.0.events.2.seq": 2}),
     "events[2].seq not strictly increasing"),
    ("flight_record", "seq exceeds recorded",
     _edit(_good_document, {"threads.0.events.3.seq": 9}),
     "seq 9 exceeds recorded 4"),
    ("flight_record", "unknown event kind",
     _edit(_good_document, {"threads.0.events.1.kind": "coffee_break"}),
     "kind unknown"),
    ("flight_record", "timestamp regression",
     _edit(_good_document, {"threads.0.events.1.ts_ns": 5}),
     "ts_ns regresses: 5 after 10"),
    ("flight_record", "more events than recorded",
     _edit(_good_document, {"threads.0.recorded": 3}),
     "4 events but only 3 recorded"),
    ("flight_record", "bool-typed payload",
     _edit(_good_document, {"threads.0.events.0.a": True}),
     "events[0].a: expected integer"),
    ("flight_record", "wrapped ring with gaps",
     _edit(_good_document, _WRAPPED_RING), None),
    ("flight_record", "seq below ring window",
     _edit(_good_document, {**_WRAPPED_RING,
                            "threads.0.events.0.seq": 300}),
     "not strictly increasing within the ring window: 300 after 372"),
    ("flight_record", "not json", "{nope", "not valid JSON"),
]


def run_self_test(only: str | None) -> int:
    failures = 0
    cases = [c for c in SELF_TEST_CASES if only in (None, c[0])]
    for fmt, name, document, expected in cases:
        errors = VALIDATORS[fmt](document)
        if expected is None:
            ok = not errors
            want = "valid"
        else:
            ok = any(expected in e for e in errors)
            want = f"an error mentioning {expected!r}"
        if ok:
            print(f"ok   {fmt}: {name}")
        else:
            failures += 1
            print(f"FAIL {fmt}: {name}: expected {want}, got {errors}")
    print(f"self-test: {len(cases)} case(s), {failures} failure(s)")
    return 1 if failures else 0


def main(args: list[str]) -> int:
    if args[:1] == ["--self-test"] and len(args) <= 2 and \
            (len(args) == 1 or args[1] in VALIDATORS):
        return run_self_test(args[1] if len(args) == 2 else None)
    if len(args) != 2 or args[0] not in VALIDATORS:
        print(f"usage: validate_artifact.py {{{'|'.join(VALIDATORS)}}} "
              f"FILE|-\n       validate_artifact.py --self-test [FORMAT]",
              file=sys.stderr)
        return 2
    fmt, path = args
    label = "<stdin>" if path == "-" else path
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as f:
                text = f.read()
    except OSError as e:
        print(f"validate_artifact: cannot read {path}: {e}", file=sys.stderr)
        return 2
    errors = VALIDATORS[fmt](text)
    for err in errors:
        print(f"{label}: {err}", file=sys.stderr)
    if errors:
        print(f"{label}: {len(errors)} {fmt} error(s)", file=sys.stderr)
        return 1
    print(f"{label}: valid {fmt}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
