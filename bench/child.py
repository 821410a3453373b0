"""One timed CLI call in a fresh interpreter; started by bench/run.py.

    python3 bench/child.py setup|plain|trace <popfock CLI arguments>

Imports popfock from the checkout's src/, runs
popfock.cli.run(popfock.cli.parse_config(argv)) once and prints one JSON
object on stdout: the monotonic clock reading when set-up ended, the wall
and CPU time of cli.run, peak RSS, the exit status and the report lines.
With "setup" it stops after parse_config and prints only the clock reading.
With "trace", the public functions of each popfock module are wrapped first
and the object also carries per-function calls, inclusive and self time,
and counts read from the model's caches.

Only os, sys and time are imported before popfock, so the set-up time is
the interpreter's and popfock's, not this harness's.
"""

from __future__ import annotations

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MODULES = ("cli", "fock", "clbasis", "translate", "pop", "gtpattern",
           "partitions", "rootdata")


def cpu_seconds():
    """User + system CPU of this process and its waited-for children."""
    import resource
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Tracer:
    """Calls, inclusive and self time per wrapped function.

    Self time is the wrapper's elapsed time minus the elapsed time of the
    wrapped calls nested in it.  Inclusive time counts only the outermost
    active call of a function, so recursion is not counted twice.
    """

    def __init__(self):
        self.calls = {}
        self.incl = {}
        self.self_s = {}
        self.counts = {}
        self._stack = []
        self._active = {}

    def timed(self, name, fn, observe=None):
        calls, incl, self_s = self.calls, self.incl, self.self_s
        stack, active = self._stack, self._active
        clock = time.perf_counter
        for table in (calls, incl, self_s):
            table[name] = 0
        active[name] = 0

        def wrapper(*args, **kwargs):
            calls[name] += 1
            active[name] += 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                active[name] -= 1
                self_s[name] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if not active[name]:
                    incl[name] += dt
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def counted(self, name, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def install_tracer(popfock, captured):
    """Wrap each module's public functions wherever popfock modules bind
    them, so names imported by value (clbasis.act_root_vector,
    cli.enumerate_pops) are wrapped where their callers look them up.
    Containers are left alone: cli.run reaches the suites through
    cli.SUITES, so the suite loops count as cli.run self time."""
    from types import FunctionType
    tracer = Tracer()
    counts = tracer.counts
    for name in ("fock.key_actions", "fock.terms_out", "fock.max_vector_terms",
                 "pop.enumerate_pops.pops", "clbasis.echelon.pivots"):
        counts[name] = 0
    mods = {m: getattr(popfock, m) for m in MODULES}
    fock, clbasis = mods["fock"], mods["clbasis"]

    def on_root_action(args, result):
        n_in, n_out = len(args[2].terms), len(result.terms)
        counts["fock.key_actions"] += n_in
        counts["fock.terms_out"] += n_out
        counts["fock.max_vector_terms"] = max(
            counts["fock.max_vector_terms"], n_in, n_out)

    def on_enumerate_pops(args, result):
        counts["pop.enumerate_pops.pops"] += len(result)

    def on_echelon(args, result):
        counts["clbasis.echelon.pivots"] += len(result)

    def on_stable_basis(args, result):
        captured.append(result[0])

    observers = {"fock.act_root_vector": on_root_action,
                 "pop.enumerate_pops": on_enumerate_pops,
                 "clbasis.stable_basis": on_stable_basis}
    replace = {}
    for mname, mod in mods.items():
        for fname, fn in vars(mod).items():
            if (fname.startswith("_") or not isinstance(fn, FunctionType)
                    or fn.__module__ != mod.__name__):
                continue
            name = "%s.%s" % (mname, fname)
            replace[fn] = tracer.timed(name, fn, observers.get(name))
    replace[clbasis._echelon] = tracer.timed(
        "clbasis.echelon", clbasis._echelon, on_echelon)
    for mod in list(mods.values()) + [popfock]:
        for attr, value in list(vars(mod).items()):
            if isinstance(value, FunctionType) and value in replace:
                setattr(mod, attr, replace[value])
    for cls, meth in ((fock.FockKey, "energy"),
                      (clbasis.OperatorWord, "apply"),
                      (mods["translate"].Cocycle, "comp_eps")):
        name = "%s.%s.%s" % (cls.__module__.split(".")[-1], cls.__name__, meth)
        setattr(cls, meth, tracer.timed(name, getattr(cls, meth)))
    for cls in (fock.FockKey, mods["rootdata"].FiniteWeight):
        name = "%s.%s.created" % (cls.__module__.split(".")[-1], cls.__name__)
        cls.__init__ = tracer.counted(name, cls.__init__)
    return tracer


def layer_metrics(tracer, fock, run_s):
    """Every statistic and count of one traced run, by metric name; run.py
    reports the ones BENCHMARK.json names."""
    c = tracer.counts
    out = {}
    for name, calls in tracer.calls.items():
        out[name + ".calls"] = calls
        out[name + ".s"] = tracer.incl[name]
        out[name + ".self_s"] = tracer.self_s[name]
    out.update(c)
    entries = len(fock._ROOT_ACTION_CACHE)
    actions = c["fock.key_actions"]
    out["fock.root_action_cache.entries"] = entries
    out["fock.root_action_cache.hit_ratio"] = (1 - entries / actions
                                               if actions else 0.0)
    out["fock.creation_terms.misses"] = fock._creation_terms.cache_info().misses
    out["trace.run_s"] = run_s
    return out


def vector_terms(v):
    """A FockVector as (lattice coords, modes, numerator, denominator) terms."""
    return [[list(k.gamma.lattice_rep()), [list(m) for m in k.modes],
             c.numerator, c.denominator] for k, c in v.terms.items()]


def main(argv):
    if not argv or argv[0] not in ("setup", "plain", "trace"):
        raise SystemExit("usage: child.py setup|plain|trace <popfock arguments>")
    mode, cli_args = argv[0], argv[1:]
    sys.path.insert(0, SRC)
    import popfock.cli
    cfg = popfock.cli.parse_config(cli_args)
    setup_end = time.monotonic()
    import json
    import resource
    if not os.path.abspath(popfock.__file__).startswith(SRC + os.sep):
        raise SystemExit("popfock imported from %s, not %s"
                         % (popfock.__file__, SRC))
    out = {"setup_end": setup_end}
    if mode != "setup":
        captured = []
        tracer = install_tracer(popfock, captured) if mode == "trace" else None
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        status, lines = popfock.cli.run(cfg)
        run_s = time.perf_counter() - t0
        out.update(run_s=run_s, cpu_s=cpu_seconds() - cpu0, status=status,
                   lines=lines,
                   rss_kib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        if tracer is not None:
            out["layers"] = layer_metrics(tracer, popfock.fock, run_s)
            out["basis_vectors"] = [[vector_terms(v) for v in vecs]
                                    for vecs in captured]
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
