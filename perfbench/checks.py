"""Correctness checks on one run's output directory.

None of them compares with stored output.  Each recomputes a value from the
config with its own formula, or asserts a property the method must have:

* every ``suite_summary.csv`` row passes, and the row count is the one the
  config implies;
* every ``t = horizon`` row of ``gspde_solution.csv`` is the Gaussian bump
  at its grid node, to 1e-12;
* both contraction constants ``kappa`` match the paper's formulas, every
  recorded Picard ratio is at most ``kappa + 0.05`` and every solve met its
  stopping rule;
* the comparison lower bound is the terminal shift for y-independent data,
  else 0, minus the measured ``eps_grid``, and every gap clears it;
* every representation checkpoint is within the configured tolerance;
* the isometry bound is sigma_bar^2 * sum |xi(t_i)|^2 dt for each
  deterministic integrand.

``check_output`` returns a list of problems; an empty list means the run is
correct.  Only the standard library is used, so importing this module costs
nothing the timed processes would see.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

TERMINAL_TOL = 1e-12
RATIO_SLACK = 0.05
REL_TOL = 1e-12
GBM_ROWS_PER_INTEGRAND = 3    # mean_zero, isometry, doob
HUNT_ROWS = 4
GSPDE_ROWS_PER_SCENARIO = 5
GBDSDE_ROWS_PER_SCENARIO = 3
DEFAULT_INTEGRANDS = ("constant", "step", "sin-t")


# -- constants recomputed from the config -------------------------------------

def _linspace(lo: float, hi: float, n: int) -> list:
    step = (hi - lo) / (n - 1)
    out = [lo + i * step for i in range(n)]
    out[-1] = hi
    return out


def _sym_eig_max(m: list) -> float:
    """Largest eigenvalue of a symmetric 1x1 or 2x2 matrix."""
    if len(m) == 1:
        return m[0][0]
    if len(m) != 2:
        raise ValueError("benchmark recomputation supports l <= 2")
    a, b, d = m[0][0], m[0][1], m[1][1]
    return 0.5 * (a + d) + math.sqrt(0.25 * (a - d) ** 2 + b * b)


def sigma_bar_sq(matrices: list) -> float:
    """max over scenarios of the top eigenvalue of beta beta^T."""
    best = 0.0
    for beta in matrices:
        n = len(beta)
        cov = [[sum(beta[i][k] * beta[j][k] for k in range(n)) for j in range(n)]
               for i in range(n)]
        best = max(best, _sym_eig_max(cov))
    return best


def ellipticity(field: dict) -> tuple:
    """(lambda, Lambda) of the coefficient field."""
    preset = field["preset"]
    if preset == "constant":
        return float(field["value"]), float(field["value"])
    if preset == "sinusoidal-1d":
        base, amp = float(field["base"]), float(field["amplitude"])
        return base - amp, base + amp
    raise ValueError(f"benchmark recomputation does not cover field {preset!r}")


def reaction_constants(spec: dict, dim: int) -> tuple:
    """(L_y, L_z): squared Lipschitz constants of the raw reaction."""
    preset = spec.get("preset", "zero")
    if preset == "zero":
        return 0.0, 0.0
    if preset in ("sin-y", "tanh-y"):
        return (float(spec["scale"]) * float(spec.get("gain", 1.0))) ** 2, 0.0
    if preset == "tanh-y-sin-z":
        ys = float(spec["y_scale"]) * float(spec.get("y_gain", 1.0))
        zs = float(spec["z_scale"]) * float(spec.get("z_gain", 1.0))
        lip = 2.0 * max(ys**2, zs**2 * dim)
        return lip, lip
    raise ValueError(f"benchmark recomputation does not cover reaction {preset!r}")


def noise_constants(spec: dict, dim: int, l: int) -> tuple:
    """(L_y, L_z) of the raw noise loading: sum_j |dg^j|^2 <= L_y|dy|^2 + L_z|dz|^2."""
    preset = spec.get("preset", "zero")
    if preset == "zero":
        return 0.0, 0.0
    if preset == "tanh-y-sin-z":
        def per_comp(key):
            v = spec[key]
            return [float(x) for x in v] if isinstance(v, list) else [float(v)] * l
        yg, zg = float(spec.get("y_gain", 1.0)), float(spec.get("z_gain", 1.0))
        lip_y = 2.0 * sum((s * yg) ** 2 for s in per_comp("y_scale"))
        lip_z = 2.0 * sum((s * zg) ** 2 for s in per_comp("z_scale")) * dim
        return lip_y, lip_z
    raise ValueError(f"benchmark recomputation does not cover noise {preset!r}")


def _epsilon(eps, lip: float, z_coef: float, lam: float) -> float:
    """The configured epsilon, or the largest one keeping kappa <= 0.9."""
    if eps is not None:
        return float(eps)
    if lip <= 0.0:
        return 1.0
    target = max(0.9, 0.5 * (1.0 + z_coef / (2.0 * lam)))
    return (2.0 * lam * target - z_coef) / lip


def kappas(cfg: dict) -> dict:
    """Contraction constants of both fixed points.

    Grid equation: kappa = (c_bar eps + sigma_bar^2 alpha_bar) / (2 lambda),
    c_bar = max(L_f, L_g,y), alpha_bar = L_g,z (times Lambda when the z slot
    is contracted with sigma).  Backward equation: kappa = (K eps + alpha
    Lambda sigma_bar^2) / (2 lambda), K = max(L_f,y, L_f,z, L_g,y),
    alpha = L_g,z.
    """
    dim = int(cfg["space_grid"].get("dim", 1))
    l = int(cfg["scenario_set"]["l"])
    sb2 = sigma_bar_sq(cfg["scenario_set"]["matrices"])
    lam, lam_up = ellipticity(cfg["coefficient_field"])
    f_y, f_z = reaction_constants(cfg.get("reaction", {}), dim)
    g_y, g_z = noise_constants(cfg.get("noise", {}), dim, l)
    sigma_mode = cfg.get("z_mode", "gradient-sigma") == "gradient-sigma"
    scale = lam_up if sigma_mode else 1.0
    c_bar = max(max(f_y, f_z * scale), g_y)
    a_bar = g_z * scale
    eps = _epsilon(cfg.get("gspde", {}).get("eps"), c_bar, sb2 * a_bar, lam)
    spde = (c_bar * eps + sb2 * a_bar) / (2.0 * lam)
    k = max(f_y, f_z, g_y)
    z_coef = g_z * lam_up * sb2
    beps = _epsilon(cfg.get("bdsde", {}).get("eps"), k, z_coef, lam)
    bdsde = (k * beps + z_coef) / (2.0 * lam)
    return {"gspde": spde, "gbdsde": bdsde}


def y_independent(cfg: dict) -> bool:
    dim = int(cfg["space_grid"].get("dim", 1))
    f_y, _ = reaction_constants(cfg.get("reaction", {}), dim)
    g_y, _ = noise_constants(cfg.get("noise", {}), dim, int(cfg["scenario_set"]["l"]))
    return f_y == 0.0 and g_y == 0.0


def enabled_checks(cfg: dict) -> list:
    return list(cfg.get("suite", {}).get(
        "checks", ["gbm-integral", "hunt-bracket", "gspde", "gbdsde",
                   "representation", "comparison"]))


def expected_rows(cfg: dict) -> int:
    """Summary rows the config implies, runner by runner."""
    n_scen = len(cfg["scenario_set"]["matrices"])
    counts = {
        "gbm-integral": GBM_ROWS_PER_INTEGRAND * len(
            cfg.get("gbm_check", {}).get("integrands", DEFAULT_INTEGRANDS)),
        "hunt-bracket": HUNT_ROWS,
        "gspde": GSPDE_ROWS_PER_SCENARIO * n_scen,
        "gbdsde": GBDSDE_ROWS_PER_SCENARIO * n_scen,
        "representation": len(cfg.get("representation", {}).get(
            "checkpoint_fractions", [0.0, 0.25, 0.5, 0.75]))
        + (1 if cfg.get("representation", {}).get("halvings", 0) else 0),
        "comparison": len(cfg.get("comparison", {}).get("cases", [None, None])),
    }
    return sum(counts[c] for c in enabled_checks(cfg))


def gaussian_bump(spec: dict, x: float) -> float:
    if spec.get("preset") != "gaussian-bump":
        raise ValueError("benchmark recomputation covers the gaussian-bump terminal only")
    amp = float(spec.get("amplitude", 1.0))
    width = float(spec.get("width", 1.0))
    center = float(spec.get("center", 0.0))
    return amp * math.exp(-0.5 * (x - center) ** 2 / width**2)


def integrand_square_sum(name: str, horizon: float, n_steps: int, l: int) -> float:
    """sum over slots t_1..t_N of |xi(t_i)|^2 dt for a deterministic integrand."""
    dt = horizon / n_steps
    times = _linspace(0.0, horizon, n_steps + 1)[1:]
    total = 0.0
    for t in times:
        if name == "constant":
            v = 1.0
        elif name == "step":
            v = 2.0 if t > 0.5 * horizon else 1.0
        elif name == "sin-t":
            v = 1.0 + 0.5 * math.sin(2.0 * math.pi * t / horizon)
        else:
            raise ValueError(f"unknown integrand {name!r}")
        total += l * v * v
    return total * dt


# -- checks ----------------------------------------------------------------------

def _read_json(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name), "r", encoding="utf-8") as handle:
        return json.load(handle)


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def check_summary(cfg: dict, out_dir: str) -> list:
    with open(os.path.join(out_dir, "suite_summary.csv"), newline="", encoding="utf-8") as h:
        rows = list(csv.DictReader(h))
    problems = [f"summary row fails: {r['check']} scenario={r['scenario_id']} "
                f"{r['metric']} value={r['value']} tolerance={r['tolerance']}"
                for r in rows if r["pass"] != "true"]
    want = expected_rows(cfg)
    if len(rows) != want:
        problems.append(f"summary has {len(rows)} rows, the config implies {want}")
    return problems


def check_terminal(cfg: dict, out_dir: str) -> list:
    horizon = float(cfg["time_grid"]["horizon"])
    sg = cfg["space_grid"]
    if int(sg.get("dim", 1)) != 1:
        raise ValueError("benchmark terminal check covers 1-D grids only")
    axis = _linspace(-float(sg["half_width"]), float(sg["half_width"]),
                     int(sg["points_per_axis"]))
    problems, seen = [], 0
    with open(os.path.join(out_dir, "gspde_solution.csv"), newline="", encoding="utf-8") as h:
        for r in csv.DictReader(h):
            if float(r["t"]) != horizon:
                continue
            seen += 1
            want = gaussian_bump(cfg["terminal"], axis[int(r["x_index"])])
            if abs(float(r["u"]) - want) > TERMINAL_TOL:
                problems.append(f"terminal value at x_index={r['x_index']} is {r['u']}, "
                                f"bump gives {want!r}")
    if not seen:
        problems.append("gspde_solution.csv has no t = horizon rows")
    return problems


def _check_picard(report: dict, kappa: float, tol_rel: float, max_iter: int,
                  label: str) -> list:
    problems = []
    if not _close(report["kappa"], kappa):
        problems.append(f"{label} kappa {report['kappa']!r} != recomputed {kappa!r}")
    for scen in report["per_scenario"]:
        sid = scen["scenario_id"]
        for r in scen["ratios"]:
            if r > kappa + RATIO_SLACK:
                problems.append(f"{label} scenario {sid} Picard ratio {r!r} > kappa + "
                                f"{RATIO_SLACK}")
        last = scen["increments"][-1] if scen["increments"] else math.inf
        if not (scen["iterations"] <= max_iter
                and last <= tol_rel * max(scen["final_norm"], 1e-300)):
            problems.append(f"{label} scenario {sid} did not converge")
    return problems


def check_contraction(cfg: dict, out_dir: str) -> list:
    ks = kappas(cfg)
    problems = []
    checks = enabled_checks(cfg)
    if "gspde" in checks:
        sec = cfg.get("gspde", {})
        problems += _check_picard(_read_json(out_dir, "gspde_report.json"), ks["gspde"],
                                  float(sec.get("tol_rel", 1e-6)),
                                  int(sec.get("max_iter", 25)), "gspde")
    if "gbdsde" in checks:
        sec = cfg.get("bdsde", {})
        problems += _check_picard(_read_json(out_dir, "gbdsde_report.json"), ks["gbdsde"],
                                  float(sec.get("tol_rel", 1e-6)),
                                  int(sec.get("max_iter", 20)), "gbdsde")
    return problems


def check_comparison(cfg: dict, out_dir: str) -> list:
    report = _read_json(out_dir, "comparison_report.json")
    problems = []
    y_free = y_independent(cfg)
    for idx, case in enumerate(report["cases"]):
        bound = (case["terminal_shift"] if y_free else 0.0) - case["eps_grid"]
        if not _close(case["expected_lower_bound"], bound):
            problems.append(f"comparison case {idx} bound {case['expected_lower_bound']!r}"
                            f" != recomputed {bound!r}")
        if case["min_gap"] < bound:
            problems.append(f"comparison case {idx} gap {case['min_gap']!r} < {bound!r}")
    return problems


def check_representation(cfg: dict, out_dir: str) -> list:
    report = _read_json(out_dir, "representation_report.json")
    tol = float(cfg.get("representation", {}).get("tolerance", 0.05))
    return [f"representation at t={c['t']} rel_rms_y {c['rel_rms_y']!r} > {tol}"
            for c in report["checkpoints"] if not c["rel_rms_y"] <= tol]


def check_isometry(cfg: dict, out_dir: str) -> list:
    sec = cfg.get("gbm_check", {})
    scen = sec.get("scenario_set", cfg["scenario_set"])
    sb2 = sigma_bar_sq(scen["matrices"])
    horizon = float(sec.get("horizon", cfg["time_grid"]["horizon"]))
    n_steps = int(sec.get("n_steps", 256))
    report = _read_json(out_dir, "gbm_report.json")["checks"]
    problems = []
    for name in sec.get("integrands", DEFAULT_INTEGRANDS):
        bound = sb2 * integrand_square_sum(name, horizon, n_steps, int(scen["l"]))
        got = report[name]["isometry_bound"]
        if not _close(got, bound, 1e-9):
            problems.append(f"isometry bound [{name}] {got!r} != recomputed {bound!r}")
    return problems


def check_output(cfg: dict, out_dir: str) -> list:
    """Every problem with one run's outputs; empty when the run is correct."""
    checks = enabled_checks(cfg)
    problems = check_summary(cfg, out_dir) + check_contraction(cfg, out_dir)
    if "gspde" in checks:
        problems += check_terminal(cfg, out_dir)
    if "comparison" in checks:
        problems += check_comparison(cfg, out_dir)
    if "representation" in checks:
        problems += check_representation(cfg, out_dir)
    if "gbm-integral" in checks:
        problems += check_isometry(cfg, out_dir)
    return problems


def digest(out_dir: str) -> str:
    """sha256 over every file name and its bytes, in name order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode("utf-8") + b"\0")
        with open(os.path.join(out_dir, name), "rb") as handle:
            h.update(handle.read())
    return h.hexdigest()
