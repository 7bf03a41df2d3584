"""End-to-end trial assessment: ingest, preprocess, extract, grade,
weight, aggregate, and report.

A full assessment needs both camera views; the five features span both
planes. The two series are not time-synchronized: every feature is a
per-view peak, so each view is windowed and reduced independently.

Reports are deterministic: identical inputs and config produce
byte-identical JSON. Every pipeline error is annotated with exactly one
stage name, in run order "config", "weights", "ingest", "preprocess",
"window", "extract", "grade", "aggregate", "emit": the config and its
weights are settled before any input is read.
"""

from __future__ import annotations

import atexit
import json
import os
import pickle
import sys
import threading
from contextlib import contextmanager, suppress
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import BinaryIO, NamedTuple

import numpy as np

from . import ahp
from . import kinematics as kin
from . import pose_ingest as pi
from .config import RunConfig
from .errors import AclRiskError, ConsistencyFailure, EmptySource, IoFailure
from .scoring import GradeVector, grade_all, grade_label

@contextmanager
def _stage(name: str):
    """Annotate any pipeline error escaping this block with one stage name."""
    try:
        yield
    except AclRiskError as exc:
        if exc.stage is None:
            exc.stage = name
        raise
    except OSError as exc:
        raise IoFailure(str(exc), stage=name) from exc


@dataclass
class AssessmentReport:
    number: int
    features: dict
    grades: dict
    labels: dict
    weights: dict
    consistency: dict | None
    total: float
    config: dict
    preprocessing: dict
    traces: dict = field(default_factory=dict)
    # trace name -> (frame indices, values); not part of the serialized report
    trace_data: dict[str, tuple[np.ndarray, np.ndarray]] | None = field(
        default=None, compare=False, repr=False)

    def grade_vector(self) -> GradeVector:
        return GradeVector(*(int(self.grades[k]) for k in GradeVector._fields))

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "trace_data"}


def resolve_weights(cfg: RunConfig):
    """Weight vector per the configured source.

    Returns (weights, the judgment matrix's consistency dict or None).
    Raises ConsistencyFailure when a derived matrix (the judgment matrix,
    or a hierarchy's criterion matrix) fails the CR < 0.1 check and force
    is not set.
    """
    if cfg.weight_source == "table5-compat":
        return ahp.TABLE5_COMPAT_WEIGHTS.copy(), None
    if cfg.weight_source == "explicit":
        return np.asarray(cfg.weights, dtype=float), None
    weights, report = ahp.derive_weights(cfg.judgment_matrix, cfg.weight_source == "geometric")
    reports = {"judgment": report}
    if cfg.hierarchical:
        criterion_weights, reports["criterion"] = ahp.derive_weights(cfg.criterion_matrix)
        weights = ahp.hierarchical_weights(criterion_weights, cfg.criterion_groups, weights)
    for matrix, checked in reports.items():
        if not checked.passed and not cfg.force:
            raise ConsistencyFailure(
                f"{matrix} matrix CR = {checked.cr:.4f} >= {ahp.CONSISTENCY_THRESHOLD}; "
                "re-elicit the matrix or pass --force")
    return weights, asdict(report)


def _settle(config: RunConfig | None):
    """``(cfg, weights, consistency)``: the config, validated, and its weighting.

    Both depend on the config alone: a trial or batch settles them before it reads or forks.
    """
    cfg = config or RunConfig()
    with _stage("config"):
        cfg.validate()
    with _stage("weights"):
        weights, consistency = resolve_weights(cfg)
    return cfg, weights, consistency


def _assess_view(source: str | Path, view: str, cfg: RunConfig):
    """Ingest, preprocess, window and extract one view.

    Returns the view's features (SagittalFeatures or FrontalFeatures)
    and its PreprocessStats.
    """
    with _stage("ingest"):
        series = pi.load_series(source, cfg.person_policy)
    with _stage("preprocess"):
        series, stats = pi.preprocess_report(
            series, pi.required_keypoints(view, cfg.sagittal_side),
            cfg.confidence_threshold, cfg.max_gap)
    with _stage("window"):
        window = kin.analysis_window(series, cfg.window_mode, cfg.window_duration_s,
                                     cfg.default_fps)
    with _stage("extract"):
        if view == pi.SAGITTAL:
            return kin.extract_sagittal(series, window, side=cfg.sagittal_side), stats
        return kin.extract_frontal(series, window), stats


def assess_trial(
    sagittal_source: str | Path,
    frontal_source: str | Path,
    config: RunConfig | None = None,
    number: int = 1,
    *,
    _settled: tuple | None = None,
) -> AssessmentReport:
    """Run the full pipeline on one two-view trial.

    The config and its weights are settled first (``_settled`` is a
    batch's ``_settle`` result). Then the sagittal view runs in the calling
    process and, where fork is safe (see ``_map``), the frontal view at the
    same time in a kept worker, which the process's first map forks and
    later maps reuse; otherwise the frontal view runs after it. When both
    views are bad the error reported is the sagittal view's.
    """
    cfg, weights, consistency = _settled or _settle(config)
    (sag, sag_stats), (fro, fro_stats) = _map(
        _assess_view, [(sagittal_source, pi.SAGITTAL, cfg), (frontal_source, pi.FRONTAL, cfg)])

    with _stage("grade"):
        grades = grade_all(sag, fro, cfg.thresholds)

    with _stage("aggregate"):
        total = ahp.aggregate(list(grades), weights)

    config_snapshot = cfg.as_dict()
    config_snapshot["inputs"] = {
        "sagittal": str(sagittal_source),
        "frontal": str(frontal_source),
    }
    return AssessmentReport(
        number=number,
        features={"p1": sag.p1, "p2": sag.p2,
                  "s4_peak": fro.s4_peak, "d1_px": fro.d1, "d2_px": fro.d2},
        grades={k: int(v) for k, v in zip(GradeVector._fields, grades)},
        labels={k: grade_label(v) for k, v in zip(GradeVector._fields, grades)},
        weights={"source": cfg.weight_source, "values": [float(w) for w in weights]},
        consistency=dict(consistency) if consistency else None,
        total=float(total),
        config=config_snapshot,
        preprocessing={"sagittal": asdict(sag_stats), "frontal": asdict(fro_stats)},
        # p1, p2, s1, ..., s4: every ``*_trace`` field of the two feature objects
        trace_data={f.name.removesuffix("_trace"): (feats.frame_indices, getattr(feats, f.name))
                    for feats in (sag, fro) for f in fields(feats)
                    if f.name.endswith("_trace")},
    )


# -- serialization ---------------------------------------------------------


def report_to_json(report: AssessmentReport) -> bytes:
    """Canonical JSON bytes (sorted keys, two-space indent, trailing newline).

    A report holding NaN or infinity is refused: JSON has no such numbers.
    """
    try:
        text = json.dumps(report.to_dict(), sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise IoFailure(f"report is not valid JSON: {exc}", stage="emit") from exc
    return (text + "\n").encode()


SUMMARY_HEADER = "number,x1,x2,x3,x4,x5,total"


def summary_csv(rows: list[tuple[int, GradeVector, float]]) -> str:
    lines = [SUMMARY_HEADER]
    lines += [f"{n},{g.x1},{g.x2},{g.x3},{g.x4},{g.x5},{t:.4f}" for n, g, t in rows]
    return "\n".join(lines) + "\n"


def emit_report(report: AssessmentReport, fmt: str = "json") -> bytes:
    """Serialize a report: full JSON, or a one-row CSV summary."""
    if fmt == "json":
        return report_to_json(report)
    if fmt == "csv":
        return summary_csv([(report.number, report.grade_vector(), report.total)]).encode()
    raise ValueError(f"unknown report format: {fmt!r}")


def _write_trace(path: Path, frames: np.ndarray, values: np.ndarray) -> None:
    """Write one trace as a `frame,value` CSV file.

    The text goes to ``<path>.part`` and is renamed over ``path``, so a
    process killed mid-write leaves the trace file whole or as it was. The
    part file is closed before the rename, so the trace is whole on disk
    when the map that writes it returns, also where a kept worker wrote it.
    """
    lines = ["frame,value"]
    lines += [f"{f},{v!r}" for f, v in zip(frames.tolist(), values.tolist())]
    part = Path(f"{path}.part")
    part.write_text("\n".join(lines) + "\n", encoding="utf-8")
    os.replace(part, path)


def emit_traces(report: AssessmentReport, directory: str | Path) -> dict[str, str]:
    """Write the six per-frame traces as `frame,value` CSV files.

    The files are shared out as ``_map`` shares its items, in
    ``trace_data`` order: on 2 CPUs the calling process writes p1, s1 and
    s3 and the kept worker that took ``assess_trial``'s frontal view writes
    p2, s2 and s4, so nothing is forked. Where fork is unsafe or only one
    CPU is usable (see ``_worker_count``), all six are written in the
    calling process. Either way the bytes are the same. Updates
    ``report.traces`` with the written file references and returns them;
    on an error it is left as it was, and no ``.part`` file is left behind.
    """
    if report.trace_data is None:
        raise IoFailure("report carries no trace data", stage="emit")
    directory = Path(directory)
    calls = [(directory / f"{name}.csv", frames, values)
             for name, (frames, values) in report.trace_data.items()]
    with _stage("emit"):
        directory.mkdir(parents=True, exist_ok=True)
        try:
            _map(_write_trace, calls)
        finally:
            # a share that failed, or a child killed mid-write, leaves its part file
            for path, _, _ in calls:
                Path(f"{path}.part").unlink(missing_ok=True)
    report.traces = {name: str(path) for name, (path, _, _) in zip(report.trace_data, calls)}
    return report.traces


# -- batch ------------------------------------------------------------------


class Trial(NamedTuple):
    number: int
    sagittal: str
    frontal: str


@dataclass
class BatchResult:
    reports: list[AssessmentReport]
    failures: list[dict]

    def summary(self) -> str:
        rows = [(r.number, r.grade_vector(), r.total) for r in self.reports]
        return summary_csv(rows)


def _assess_one(trial: Trial, settled: tuple) -> AssessmentReport | dict:
    """One batch trial: its report, or its failure record if a pipeline error stopped it."""
    try:
        return assess_trial(trial.sagittal, trial.frontal, settled[0], trial.number,
                            _settled=settled)
    except AclRiskError as exc:
        return {
            "number": trial.number,
            "stage": exc.stage or "unknown",
            "error": type(exc).__name__,
            "message": exc.message,
        }


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# set while a map runs in its caller, and for good in a kept worker
_mapping = False


def _worker_count(n_items: int) -> int:
    """How many processes share ``n_items``: the caller and its kept workers.

    The items are a trial's two views, a batch's trials or a report's six
    trace files. Fork is unsafe on macOS and in a process running other
    threads (a child gets a copy of every lock, but only the calling
    thread), a daemonic multiprocessing worker already shares the CPUs with
    its pool, and a map's caller and workers already share them with each
    other, so these run every item in-process.
    """
    workers = min(n_items, _usable_cpus())
    if (_mapping or workers < 2 or sys.platform == "darwin" or not hasattr(os, "fork")
            or threading.active_count() > 1):
        return 1
    # a process that never imported multiprocessing is none of its workers
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is not None and multiprocessing.current_process().daemon:
        return 1
    return workers


def _share_result(request: bytes) -> bytes:
    """The pickled ``("ok", outcomes)`` of a pickled ``(fn, share)`` request, or
    ``("error", exc)`` for the error that stopped it."""
    try:
        fn, share = pickle.loads(request)
        return pickle.dumps(("ok", [fn(*args) for args in share]))
    except Exception as exc:
        error = exc
    try:
        data = pickle.dumps(("error", error))
        pickle.loads(data)  # an exception can pickle and still fail to rebuild
        return data
    except Exception:
        return pickle.dumps(("error", RuntimeError(
            f"a worker's share raised {type(error).__name__}: {error} "
            "(the error cannot be pickled)")))


class _Worker:
    """A kept worker: its pid, the write end of the pipe it reads its
    requests from, and the read end of the pipe it sends its results up."""

    __slots__ = ("pid", "requests", "results")

    def __init__(self, pid: int, requests: int, results: BinaryIO):
        self.pid, self.requests, self.results = pid, requests, results


# kept workers, each forked while the caller's ``_caller_state`` was ``_pool_state``
_pool: list[_Worker] = []
_pool_state = None


def _caller_state() -> tuple | None:
    """What a worker copies at fork and cannot follow: the caller's pid,
    working directory (its device and inode) and umask.

    None, which matches no pool, when the working directory cannot be
    examined (a process may lack search permission on it).
    """
    umask = os.umask(0o022)
    os.umask(umask)
    try:
        cwd = os.stat(".")
    except OSError:
        return None
    return os.getpid(), cwd.st_dev, cwd.st_ino, umask


def _send(fd: int, data: bytes) -> None:
    """Write ``data`` to ``fd`` after its length, as 8 little-endian bytes."""
    for part in (len(data).to_bytes(8, "little"), data):
        view = memoryview(part)
        while view:
            view = view[os.write(fd, view):]


def _receive(pipe: BinaryIO) -> bytes:
    """The next message ``_send`` wrote to ``pipe``; ``b""`` where the pipe ends."""
    size = int.from_bytes(pipe.read(8), "little")
    data = pipe.read(size)
    return data if len(data) == size else b""


def _serve(requests: int, results: int) -> None:
    """A worker's life: answer each request on ``requests`` with its
    ``_share_result`` on ``results``, until the caller closes its end."""
    global _mapping
    import signal  # numpy does not import signal: only a worker pays

    _mapping = True
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the caller's to handle
    # hold no descriptor open that the caller may close later and expect to
    # end, such as a pipe to another process
    devnull = os.open(os.devnull, os.O_RDWR)
    listing = "/proc/self/fd" if os.path.isdir("/proc/self/fd") else "/dev/fd"
    for fd in map(int, os.listdir(listing)):
        if fd not in (requests, results, devnull):
            os.dup2(devnull, fd)
    os.close(devnull)
    with open(requests, "rb") as pipe:
        while request := _receive(pipe):
            _send(results, _share_result(request))


def _fork_worker() -> _Worker:
    """Fork a worker; the caller keeps one end of each of its two pipes."""
    requests_read, requests_write = os.pipe()
    results_read, results_write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (requests_read, requests_write, results_read, results_write):
            os.close(fd)
        raise
    if pid == 0:
        # never return into the caller's stack, flush its stdio buffers or run atexit
        code = 1
        try:
            os.close(requests_write)
            os.close(results_read)
            _serve(requests_read, results_write)
            code = 0
        finally:
            os._exit(code)
    os.close(requests_read)
    os.close(results_write)
    return _Worker(pid, requests_write, open(results_read, "rb"))


def _release(worker: _Worker) -> None:
    """Forget a worker and close this process's ends of its pipes."""
    _pool.remove(worker)
    os.close(worker.requests)
    worker.results.close()


def _close_pool() -> None:
    """End every kept worker: close its pipes, so that it exits, and reap it.

    Also a forked child's hook: its parent's workers are not its children,
    so it only closes its copies of their pipes.
    """
    workers = list(_pool)
    for worker in workers:
        _release(worker)
    for worker in workers:
        with suppress(ChildProcessError):  # reaped by someone else, or not a child
            os.waitpid(worker.pid, 0)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_close_pool)
atexit.register(_close_pool)


def _workers(n: int) -> list[_Worker]:
    """``n`` kept workers that behave as if forked now.

    The pool is replaced when the caller's state has changed since it was
    forked, a worker found dead is reaped and replaced, and the pool grows
    as needed.
    """
    global _pool_state
    state = _caller_state()
    if state is None or state != _pool_state:
        _close_pool()
        _pool_state = state
    for worker in list(_pool):
        try:
            alive = os.waitpid(worker.pid, os.WNOHANG)[0] == 0
        except ChildProcessError:  # reaped by someone else
            alive = False
        if not alive:
            _release(worker)
    while len(_pool) < n:
        _pool.append(_fork_worker())
    return _pool[:n]


def _map(fn, calls: list[tuple]) -> list:
    """``[fn(*args) for args in calls]``, spread over the caller and kept workers.

    Each call is one item: a view of a trial, a trial of a batch or a
    trace file of a report. With ``workers`` processes, call i runs in
    share ``i % workers``: share 0 in the calling process, share k in kept
    worker k, which gets ``(fn, share)`` pickled down one pipe and sends its
    pickled outcomes up another. Outcomes come back in call order. The
    first map that needs a worker forks it, and later maps in the same
    process reuse it (see ``_workers``); ``fn`` goes by reference, so a
    worker runs the ``fn`` its module held when it was forked. A worker's
    first error is raised with its type, and a worker that ends without a
    result is a ``RuntimeError`` naming its wait status. Any error out of
    a map kills and reaps every worker. While a map runs, a map called in
    its caller or in a worker runs in-process.
    """
    global _mapping
    workers = _worker_count(len(calls))
    if workers == 1:
        return [fn(*args) for args in calls]
    outcomes = [None] * len(calls)
    _mapping = True
    try:
        pool = _workers(workers - 1)
        for k, worker in enumerate(pool, 1):
            request = pickle.dumps((fn, calls[k::workers]))
            with suppress(BrokenPipeError):  # a dead worker is named below
                _send(worker.requests, request)
        outcomes[0::workers] = [fn(*args) for args in calls[0::workers]]
        for k, worker in enumerate(pool, 1):
            data = _receive(worker.results)
            if not data:
                _release(worker)
                status = os.waitpid(worker.pid, 0)[1]
                raise RuntimeError(f"forked worker {worker.pid} ended without a result "
                                   f"(wait status {status})")
            kind, value = pickle.loads(data)
            if kind == "error":
                raise value
            outcomes[k::workers] = value
    except BaseException:
        from signal import SIGKILL
        for worker in _pool:  # each may still be running a share
            with suppress(ProcessLookupError):
                os.kill(worker.pid, SIGKILL)
        _close_pool()
        raise
    finally:
        _mapping = False
    return outcomes


def assess_batch(trials: list[Trial], config: RunConfig | None = None) -> BatchResult:
    """Assess trials; a bad config or weighting fails the batch, a bad trial only itself.

    The trials are shared among the calling process and kept workers as
    ``_map`` describes, each worker's trials and the settled config pickled
    down to it. A batch spread over workers runs each trial's two views one
    after the other in the process that has the trial. Reports and failures
    come back in trial order.
    """
    settled = _settle(config)
    if not trials:
        with _stage("ingest"):
            raise EmptySource("batch contains no trials")
    outcomes = _map(_assess_one, [(t, settled) for t in trials])
    return BatchResult(
        reports=[o for o in outcomes if isinstance(o, AssessmentReport)],
        failures=[o for o in outcomes if isinstance(o, dict)])
