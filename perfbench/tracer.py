"""Outside-in tracer for the zetacan CLI, and the per-layer metrics of its spans.

Run as a program it is a traced `zetacan`:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.npz spectrum --m 2

It imports `zetacan.cli` (timing the import), wraps each function named in
`TRACED` and rebinds the wrapper under every name that any `zetacan` module
holds for it, wraps the `verify.SUITES` entries, then runs the CLI with the
remaining arguments.  Each call is a span (name, start, end, parent) kept in
memory; the spans are written to SPANS.npz when the CLI returns.  Nothing in
`src/` changes, and stdout is whatever the untraced CLI would print.

`layer_metrics` turns the span files of a traced run into per-layer metrics.
"""

import sys
import time

if __name__ == "__main__":
    _t0 = time.perf_counter()
    import zetacan.cli
    IMPORT_S = time.perf_counter() - _t0

import functools

import numpy as np

# module -> functions whose calls become spans
TRACED = {
    "cli": ("dumps",),
    "special": ("bessel_j_many", "bessel_j_complex_many", "bessel_i_log",
                "hurwitz_zeta", "hurwitz_zeta_prime"),
    "numerics": ("brent_root", "adaptive_quad", "fit_asymptotic_profile",
                 "zero_tail_sum", "mellin_contour_zeta",
                 "mellin_zeta_critical_values"),
    "besselx": ("bessel_j_zeros", "zeros", "taylor_sum_rule_exact"),
    "zetareg": ("z_m_values", "spectral_zeta_direct", "spectral_zeta_contour"),
    "torsion": ("torsion_g", "gram_entry"),
}
SUITES = ("quadrature", "gram", "interlacing", "sumrule", "routes", "pipeline",
          "constants", "bessel")


def _route(args, kwargs):
    return "zetareg.z_m_values." + kwargs.get(
        "route", args[1] if len(args) > 1 else "closed")


# span name -> label(args, kwargs) giving the span's name per call
LABELS = {"zetareg.z_m_values": _route}
# span name -> work(args, result) giving the span's work count
WORK = {"special.bessel_j_complex_many": lambda a, out: int(np.size(a[1])),
        "besselx.zeros": lambda a, out: len(out.zeros)}


class Recorder:
    """Spans in creation order; a parent is always created before its children."""

    def __init__(self):
        self.name, self.parent, self.start, self.end, self.work = [], [], [], [], []
        self.stack = [-1]

    def wrap(self, name, fn):
        label, work = LABELS.get(name), WORK.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(label(args, kwargs) if label else name)
            self.parent.append(self.stack[-1])
            self.end.append(0.0)
            self.work.append(0)
            self.stack.append(i)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self.stack.pop()
            if work:
                self.work[i] = work(args, out)
            return out
        return traced

    def install(self):
        mods = [m for n, m in sys.modules.items()
                if n == "zetacan" or n.startswith("zetacan.")]
        for mod, names in TRACED.items():
            home = sys.modules["zetacan." + mod]
            for fname in names:
                orig = getattr(home, fname)
                wrapped = self.wrap(f"{mod}.{fname}", orig)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapped)
        suites = sys.modules["zetacan.verify"].SUITES
        for key, fn in list(suites.items()):
            suites[key] = self.wrap(f"verify.{key}", fn)

    def save(self, path, import_s):
        names = sorted(set(self.name))
        ids = {n: i for i, n in enumerate(names)}
        np.savez(path, names=np.array(names),
                 name_id=np.array([ids[n] for n in self.name], dtype=np.int32),
                 parent=np.array(self.parent, dtype=np.int64),
                 start=np.array(self.start), end=np.array(self.end),
                 work=np.array(self.work, dtype=np.int64),
                 import_s=np.array(import_s))


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------

def _nearest_ancestor(parent, name_id, target):
    """Index of each span's nearest strict ancestor named `target`, else -1.

    `target` is one name id, or an array giving one per span.
    """
    out = np.full(len(parent), -1)
    cur = parent.copy()
    live = cur >= 0
    while live.any():
        idx = np.where(live, cur, 0)
        hit = live & (name_id[idx] == target)
        out[hit] = cur[hit]
        live &= ~hit
        cur = np.where(live, parent[idx], -1)
        live &= cur >= 0
    return out


def _one_file(path):
    """Per-name totals and nested counts of one traced command."""
    with np.load(path) as z:
        names = [str(n) for n in z["names"]]
        nid, parent, work = z["name_id"], z["parent"], z["work"]
        dur = z["end"] - z["start"]
        import_s = float(z["import_s"])
    ids = {n: i for i, n in enumerate(names)}
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    self_s = dur - child
    outermost = _nearest_ancestor(parent, nid, nid) < 0
    tot = {}
    for n, i in ids.items():
        sel = nid == i
        tot[n] = {"calls": int(sel.sum()), "self_s": float(self_s[sel].sum()),
                  "incl_s": float(dur[sel & outermost].sum()),
                  "work": int(work[sel].sum())}
    nested = {"j_under_brent": 0, "j_under_zeros": 0, "j_zeros_missed": 0,
              "j_zeros_self_s": 0.0}
    j = ids.get("special.bessel_j_many")
    if j is not None:
        is_j = nid == j
        for key, target in (("j_under_brent", "numerics.brent_root"),
                            ("j_under_zeros", "besselx.zeros")):
            if target in ids:
                nested[key] = int((_nearest_ancestor(parent, nid, ids[target])[is_j]
                                   >= 0).sum())
        if "besselx.bessel_j_zeros" in ids:
            owner = _nearest_ancestor(parent, nid, ids["besselx.bessel_j_zeros"])
            under = is_j & (owner >= 0)
            nested["j_zeros_missed"] = len(np.unique(owner[under]))
            nested["j_zeros_self_s"] = float(self_s[under].sum())
    return tot, nested, import_s


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(span_files, passes, traced_wall_s, overhead_s):
    """{metric: (value, unit)} per pass, from the span files of a traced run."""
    tot, nested, imports = {}, {}, []
    for path in span_files:
        t, n, imp = _one_file(path)
        imports.append(imp)
        for name, vals in t.items():
            acc = tot.setdefault(name, dict.fromkeys(vals, 0))
            for k, v in vals.items():
                acc[k] += v
        for k, v in n.items():
            nested[k] = nested.get(k, 0) + v
    empty = {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "work": 0}

    def get(name, field):
        return tot.get(name, empty)[field]

    out = {"cli.import_s": (float(np.median(imports)) if imports else 0.0, "s")}
    for name, fields in (
            ("cli.dumps", ("self_s",)),
            ("special.bessel_j_many", ("calls", "self_s")),
            ("special.bessel_j_complex_many", ("calls", "points", "self_s")),
            ("special.bessel_i_log", ("calls", "self_s")),
            ("special.hurwitz_zeta", ("calls", "self_s")),
            ("special.hurwitz_zeta_prime", ("calls", "self_s")),
            ("numerics.brent_root", ("calls", "self_s")),
            ("numerics.adaptive_quad", ("calls", "self_s")),
            ("numerics.fit_asymptotic_profile", ("calls", "self_s")),
            ("numerics.zero_tail_sum", ("calls", "self_s")),
            ("numerics.mellin_contour_zeta", ("calls", "incl_s")),
            ("numerics.mellin_zeta_critical_values", ("calls", "incl_s")),
            ("besselx.bessel_j_zeros", ("calls", "incl_s")),
            ("besselx.zeros", ("calls", "incl_s", "zeros_out")),
            ("besselx.taylor_sum_rule_exact", ("self_s",)),
            ("zetareg.z_m_values.closed", ("incl_s",)),
            ("zetareg.z_m_values.profile", ("incl_s",)),
            ("zetareg.z_m_values.contour", ("incl_s",)),
            ("zetareg.spectral_zeta_direct", ("incl_s",)),
            ("zetareg.spectral_zeta_contour", ("incl_s",)),
            ("torsion.torsion_g", ("incl_s",)),
            ("torsion.gram_entry", ("calls",)),
    ) + tuple((f"verify.{s}", ("incl_s",)) for s in SUITES):
        for field in fields:
            src = "work" if field in ("points", "zeros_out") else field
            unit = "s" if field.endswith("_s") else "count"
            out[f"{name}.{field}"] = (get(name, src) / passes, unit)
        if name == "special.bessel_j_many":
            out[f"{name}.points_per_s"] = (
                _ratio(get(name, "calls"), get(name, "self_s")), "1/s")
        if name == "numerics.brent_root":
            out[f"{name}.evals_per_root"] = (
                _ratio(nested.get("j_under_brent", 0), get(name, "calls")),
                "evals/root")
        if name == "besselx.bessel_j_zeros":
            out[f"{name}.hit_ratio"] = (
                1.0 - _ratio(nested.get("j_zeros_missed", 0), get(name, "calls"))
                if get(name, "calls") else 0.0, "ratio")
            out[f"{name}.j_self_s"] = (nested.get("j_zeros_self_s", 0.0) / passes, "s")
    out["besselx.j_evals_per_zero"] = (
        _ratio(nested.get("j_under_zeros", 0), get("besselx.zeros", "work")),
        "evals/zero")
    out["trace.wall_s"] = (traced_wall_s / passes, "s")
    out["trace.overhead_s"] = (overhead_s / passes, "s")
    return out


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    rec = Recorder()
    rec.install()
    try:
        rc = zetacan.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        rec.save(spans_path, IMPORT_S)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
