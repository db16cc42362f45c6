"""The benchmark's workloads: inputs made from a seed, one timed call sequence
through the library's public entry points, and the check of its outputs.

The seed moves only the wavespeeds of the campaigns' ``c2`` model (inside
the coefficient bounds) and the jacobian_2d perturbation, so every seed does
the same amount of work. The two-layer model stays at 1 and 2 m/s with its
interface at depth 0.5: its projection onto block-aligned partitions then has
exactly the same values at every scale, the solver's content-keyed cache
reuses one factorization across those scales, and the number of
factorizations is fixed (10 for campaign_2d, 6 for campaign_3d). Any other
wavespeed has a squared slowness that block averaging reproduces only to
rounding, which would make the factorization count depend on the seed.

Library calls go through module attributes (``cli.run_campaign``, not a name
bound at import), so the wrappers of ``spans.Tracer`` see them.
"""

from __future__ import annotations

import csv
import math
import os

import numpy as np
import yaml

from helmstab import (
    cli,
    derivative,
    forward,
    geometry,
    model,
    solver,
    spectrum,
    stability,
)

MODULES = {
    "cli": cli,
    "derivative": derivative,
    "forward": forward,
    "geometry": geometry,
    "model": model,
    "solver": solver,
    "spectrum": spectrum,
    "stability": stability,
}

REFERENCE_SEED = 0
RTOL = 1e-8          # relative agreement pinned by acceptance criterion 4
INTERFACE_DEPTH = 0.5

CAMPAIGN_BOUNDS = (0.25, 1.0)
JACOBIAN_BOUNDS = (0.2, 1.0)

# Sizes per workload: "full" is what the benchmark measures, "smoke" is a
# seconds-long version of the same call sequence for the self-test.
PARAMS = {
    "campaign_2d": {
        "full": {"cells": [128, 128], "freqs": [0.3, 0.45],
                 "blocks": [[2, 2], [4, 4], [8, 8], [16, 16]],
                 "modes": ["full", "top"], "source_spacing": 0.0625,
                 "receiver_spacing": 0.03125, "sigma": 0.08},
        "smoke": {"cells": [32, 32], "freqs": [0.3, 0.45],
                  "blocks": [[2, 2], [4, 4]],
                  "modes": ["full", "top"], "source_spacing": 0.125,
                  "receiver_spacing": 0.0625, "sigma": 0.08},
    },
    "campaign_3d": {
        "full": {"cells": [24, 24, 24], "freqs": [0.45],
                 "blocks": [[2, 2, 2], [3, 3, 3], [4, 4, 4], [6, 6, 6]],
                 "modes": ["top"], "source_spacing": 0.25,
                 "receiver_spacing": 0.125, "sigma": 0.15},
        "smoke": {"cells": [8, 8, 8], "freqs": [0.45],
                  "blocks": [[2, 2, 2], [4, 4, 4]],
                  "modes": ["top"], "source_spacing": 0.25,
                  "receiver_spacing": 0.25, "sigma": 0.15},
    },
    "jacobian_2d": {
        "full": {"cells": [64, 64], "blocks": [8, 8], "freq": 0.45,
                 "source_spacing": 0.0625, "receiver_spacing": 0.03125,
                 "sigma": 0.08, "eigen_count": 6},
        "smoke": {"cells": [16, 16], "blocks": [4, 4], "freq": 0.45,
                  "source_spacing": 0.125, "receiver_spacing": 0.0625,
                  "sigma": 0.08, "eigen_count": 6},
    },
}


TWO_LAYER_V = (1.0, 2.0)     # (top, bottom) wavespeed of the two-layer model


def _linear_depth_wavespeeds(seed):
    """(v_top, v_bottom) of the linear-depth model, inside c in [1, 2] m/s so
    its squared slowness stays inside the bounds."""
    u = np.random.default_rng(seed).uniform(size=2).tolist()
    return 1.0 + 0.1 * u[0], 2.0 - 0.1 * u[1]


def _close(value, ref) -> bool:
    return abs(value - ref) <= RTOL * abs(ref)


def _all_close(values, refs) -> bool:
    return len(values) == len(refs) and all(map(_close, values, refs))


def _matches(got: dict, want: dict) -> bool:
    """Same keys, every value within RTOL of the reference."""
    return got.keys() == want.keys() and all(
        _close(got[k], want[k]) for k in got)


def _finite_positive(*values) -> bool:
    return all(math.isfinite(v) and v > 0 for v in values)


class Campaign:
    """``cli.load_config`` then ``cli.run_campaign``, as ``helmstab run`` does.

    One operation is one (frequency, scale, mode) cell.
    """

    def __init__(self, name, size, seed, workdir):
        p = PARAMS[name][size]
        v2_top, v2_bottom = _linear_depth_wavespeeds(seed)
        dim = len(p["cells"])
        config = {
            "grid": {"extents": [1.0] * dim, "cells": p["cells"]},
            "model": {
                "bounds": list(CAMPAIGN_BOUNDS),
                "c1": {"generator": "two_layer", "v_top": TWO_LAYER_V[0],
                       "v_bottom": TWO_LAYER_V[1],
                       "interface_depth": INTERFACE_DEPTH},
                "c2": {"generator": "linear_depth", "v_top": v2_top,
                       "v_bottom": v2_bottom},
            },
            "frequencies_hz": p["freqs"],
            "scales": {"blocks": p["blocks"]},
            "acquisition": {"modes": p["modes"],
                            "source_spacing": p["source_spacing"],
                            "receiver_spacing": p["receiver_spacing"],
                            "sigma": p["sigma"]},
            "output": {"directory": os.path.join(workdir, "out")},
        }
        path = os.path.join(workdir, "config.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(config, fh)
        cfg, errors, warnings_ = cli.load_config(path)
        if cfg is None:
            raise ValueError(f"benchmark config rejected: {errors}")
        self.cfg = cfg
        self.status = None
        self.cells = [(f, int(np.prod(b)), m) for f in p["freqs"]
                      for b in p["blocks"] for m in p["modes"]]
        grid = cfg.grid()
        acqs = {m: forward.make_acquisition(grid, m, p["source_spacing"],
                                            p["receiver_spacing"], p["sigma"])
                for m in p["modes"]}
        self.info = {
            "grid": p["cells"], "N": [int(np.prod(b)) for b in p["blocks"]],
            "sources": {m: a.n_sources for m, a in acqs.items()},
            "receivers": {m: a.n_receivers for m, a in acqs.items()},
            "config_warnings": warnings_,
        }

    @property
    def n_ops(self) -> int:
        return len(self.cells)

    def run(self):
        self.status = cli.run_campaign(self.cfg)

    def outputs(self) -> dict:
        """Per-cell c_est/data_norm lists and per-(frequency, mode) constants
        read back from the campaign's CSV files."""
        cells = {}
        records = stability.read_records_csv(
            os.path.join(self.cfg.out_dir, "records.csv"))
        for r in records:
            key = f"{r['freq_hz']:g}/{r['N']}/{r['mode']}"
            cells.setdefault(key, []).append(
                {"c_est": r["c_est"], "data_norm": r["data_norm"]})
        constants = {}
        with open(os.path.join(self.cfg.out_dir, "constants.csv"),
                  newline="") as fh:
            for row in csv.DictReader(fh):
                constants[f"{float(row['freq_hz']):g}/{row['mode']}"] = {
                    "k": float(row["k"]), "k1": float(row["k1"])}
        return {"cells": cells, "constants": constants}

    def failed_ops(self, out: dict, ref: dict | None) -> int:
        failed = set()
        for f, n, m in self.cells:
            rows = out["cells"].get(f"{f:g}/{n}/{m}", [])
            if len(rows) != 1 or not _finite_positive(rows[0]["c_est"],
                                                      rows[0]["data_norm"]):
                failed.add((f, n, m))
        # top data is a sub-block of full data, so its operator norm cannot
        # be larger (acceptance criterion 10); 1e-12 absorbs SVD rounding
        for f, n, m in self.cells:
            if m != "top" or (f, n, "full") not in self.cells or \
                    {(f, n, "top"), (f, n, "full")} & failed:
                continue
            c_top = out["cells"][f"{f:g}/{n}/top"][0]["c_est"]
            c_full = out["cells"][f"{f:g}/{n}/full"][0]["c_est"]
            if c_top < c_full * (1.0 - 1e-12):
                failed |= {(f, n, "top"), (f, n, "full")}
        for f, n, m in self.cells:
            consts = out["constants"].get(f"{f:g}/{m}")
            if consts is None or not all(map(math.isfinite, consts.values())):
                failed.add((f, n, m))
        if ref is not None:
            for cell in set(self.cells) - failed:
                f, n, m = cell
                got = out["cells"][f"{f:g}/{n}/{m}"][0]
                want = ref["cells"].get(f"{f:g}/{n}/{m}", [{}])[0]
                got_c = out["constants"][f"{f:g}/{m}"]
                want_c = ref["constants"].get(f"{f:g}/{m}", {})
                if not _matches(got, want) or not _matches(got_c, want_c):
                    failed.add(cell)
        if self.status != cli.EXIT_OK and not failed:
            return self.n_ops
        return len(failed)


class Jacobian:
    """Local derivative analysis at one model: the discrete Dirichlet spectrum
    for the distance to resonance, then the Frechet-derivative norm report
    over every canonical direction.

    One operation is the eigen-solve or one direction.
    """

    def __init__(self, size, seed):
        p = PARAMS["jacobian_2d"][size]
        grid = geometry.build_grid([1.0, 1.0], p["cells"])
        partition = geometry.build_partition(grid, p["blocks"])
        base = model.from_gridded_field(
            model.two_layer_field(grid, *TWO_LAYER_V, INTERFACE_DEPTH),
            partition, JACOBIAN_BOUNDS)
        scale = 1.0 - 0.05 * np.random.default_rng(seed).uniform(
            size=base.n_subdomains)
        self.model = model.SquaredSlownessModel(
            partition, base.values * scale, JACOBIAN_BOUNDS)
        self.coeff = model.to_cell_field(self.model)
        self.acq = forward.make_acquisition(
            grid, forward.MODE_FULL, p["source_spacing"],
            p["receiver_spacing"], p["sigma"])
        self.omega2 = (2.0 * np.pi * p["freq"]) ** 2
        self.eigen_count = p["eigen_count"]
        self.eigenvalues = None
        self.report = None
        self.info = {"grid": p["cells"], "N": base.n_subdomains,
                     "sources": self.acq.n_sources,
                     "receivers": self.acq.n_receivers}

    @property
    def n_ops(self) -> int:
        return 1 + self.model.n_subdomains

    def run(self):
        grid = self.model.grid
        self.eigenvalues = spectrum.discrete_dirichlet_eigenvalues(
            grid, self.coeff, self.eigen_count)
        distance = float(np.min(np.abs(self.eigenvalues - self.omega2)))
        self.report = derivative.frechet_norm_bounds_report(
            self.model, self.omega2, self.acq, distance_to_spectrum=distance)

    def outputs(self) -> dict:
        return {
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "df_norms": [float(v) for v in self.report.norms],
            "upper_shape_constant": float(self.report.upper_shape_constant),
            "lower_shape_constant": float(self.report.lower_shape_constant),
        }

    def failed_ops(self, out: dict, ref: dict | None) -> int:
        eig, norms = out["eigenvalues"], out["df_norms"]
        consts = [out["upper_shape_constant"], out["lower_shape_constant"]]
        eig_ok = len(eig) == self.eigen_count and _finite_positive(*eig)
        dir_ok = [_finite_positive(v) for v in norms]
        # the shape constants summarise every direction's norm
        report_ok = (len(norms) == self.model.n_subdomains
                     and all(map(math.isfinite, consts)))
        if ref is not None:
            eig_ok = eig_ok and _all_close(eig, ref["eigenvalues"])
            dir_ok = [ok and _close(v, r)
                      for ok, v, r in zip(dir_ok, norms, ref["df_norms"])]
            report_ok = (report_ok and len(norms) == len(ref["df_norms"])
                         and _all_close(consts, [ref["upper_shape_constant"],
                                                 ref["lower_shape_constant"]]))
        dir_failed = dir_ok.count(False) if report_ok else self.model.n_subdomains
        return int(not eig_ok) + dir_failed


WORKLOADS = ("campaign_2d", "campaign_3d", "jacobian_2d")


def make(name, size, seed, workdir):
    """Set up one workload's inputs; everything here counts as set-up time."""
    if name == "jacobian_2d":
        return Jacobian(size, seed)
    return Campaign(name, size, seed, workdir)
