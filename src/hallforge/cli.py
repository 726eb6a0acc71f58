"""Command line front end.

Exit codes: 0 all checks passed, 1 verification failures, 2 usage or
parse errors, 3 resource cap exceeded.
"""

import argparse
import json
import os
import sys

from .backend import make_backend
from .caps import CapExceeded
from .exprs import ExprError, parse_expr, render_elt
from .presented import algebra, d_quasi, normal_form
from .quiver import quiver_from_arg
from .suites import DEFAULT_SEED, SUITES, RunConfig, exit_code, run_suite

_MAX_FAILURE_LINES = 20


def _backend(args):
    return make_backend(quiver_from_arg(args.quiver), args.q)


def _check_out(path):
    """Refuse a report path that cannot be written, before the run."""
    if os.path.isdir(path):
        raise ValueError("cannot write report %r (is a directory)" % path)
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        raise ValueError("cannot write report %r (no such directory)" % path)


def _cmd_verify(args):
    cfg = RunConfig(suite=args.suite, quiver=args.quiver, q=args.q,
                    m=args.m, i=args.i, max_dim=args.max_dim,
                    idx_window=args.idx_window, threads=args.threads,
                    seed=args.seed)
    if args.out:
        _check_out(args.out)
    report = run_suite(cfg)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        except OSError as exc:
            raise ValueError("cannot write report %r (%s)"
                             % (args.out, exc.strerror or exc))
    print("%s on %s (q=%d): %d/%d passed, %d cap hits, %d ms"
          % (report["suite"], report["quiver"], report["q"],
             report["passes"], report["instances"], report["cap_hits"],
             report["elapsed_ms"]))
    for fail in report["failures"][:_MAX_FAILURE_LINES]:
        print("FAIL %s %s" % (fail["relation"],
                              json.dumps(fail["params"], sort_keys=True)))
        print("  lhs: %s" % fail["lhs"])
        print("  rhs: %s" % fail["rhs"])
        if fail["note"]:
            print("  note: %s" % fail["note"])
    extra = len(report["failures"]) - _MAX_FAILURE_LINES
    if extra > 0:
        print("... and %d more failures" % extra)
    return exit_code(report)


def _cmd_mult(args):
    be = _backend(args)
    alg = algebra(args.algebra, be)
    elt = parse_expr(args.expr, alg)
    if alg.family == "d":
        # no oriented rule table; the deterministic quasi-reduction
        out = d_quasi(be, elt)
    else:
        out = normal_form(alg, elt)
    print(render_elt(be, out))
    return 0


def _resolve_object(be, name):
    try:
        return be.class_by_name(name)
    except (ValueError, IndexError):
        raise ValueError("unknown object %r" % (name,))


def _cmd_hallnum(args):
    be = _backend(args)
    big = _resolve_object(be, args.L)
    outer = _resolve_object(be, args.M)
    inner = _resolve_object(be, args.N)
    print(be.hall_number(big, outer, inner))
    return 0


def _cmd_classes(args):
    be = _backend(args)
    try:
        dims = tuple(int(t) for t in args.dimvec.split(","))
    except ValueError:
        raise ValueError("bad dimension vector %r" % (args.dimvec,))
    cids = sorted(be.classes_within(dims), key=be.class_sort_key)
    for cid in cids:
        d = be.class_dim(cid)
        print("%s\tdims=(%s)\taut=%d"
              % (be.class_name(cid), ",".join(str(x) for x in d),
                 be.aut_count(cid)))
    return 0


def _add_common(p):
    p.add_argument("--quiver", default="a2",
                   help="preset name (a1, a2, a3, kronecker) or file path")
    p.add_argument("--q", type=int, default=2, help="field size, prime")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hallforge",
        description="exact verification of Hall algebra presentations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run one verification suite")
    p.add_argument("--suite", required=True, choices=SUITES)
    _add_common(p)
    p.add_argument("--m", type=int, default=0,
                   help="cyclic modulus for dhm targets (0 or > 2)")
    p.add_argument("--i", type=int, default=None,
                   help="single index instead of the suite's default window")
    p.add_argument("--max-dim", type=int, default=None,
                   help="total dimension bound for the object window")
    p.add_argument("--idx-window", type=int, default=3,
                   help="complex-degree bound for indexed relations")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument("--threads", type=int, default=1,
                   help="shard count: run the instances in this many "
                   "processes, capped at the usable CPUs; the report "
                   "does not depend on it")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("mult", help="normalize a product expression")
    p.add_argument("--algebra", required=True,
                   help="hd, hhd, d, dhm:<m>, dh, dhtw, or dhce")
    _add_common(p)
    p.add_argument("--expr", required=True)
    p.set_defaults(fn=_cmd_mult)

    p = sub.add_parser("hallnum", help="one structure constant g^L_{MN}")
    _add_common(p)
    p.add_argument("--L", required=True)
    p.add_argument("--M", required=True)
    p.add_argument("--N", required=True)
    p.set_defaults(fn=_cmd_hallnum)

    p = sub.add_parser("classes", help="isoclass table for a dimension bound")
    _add_common(p)
    p.add_argument("--dimvec", required=True,
                   help="comma-separated entries, e.g. 2,2")
    p.set_defaults(fn=_cmd_classes)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ExprError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
