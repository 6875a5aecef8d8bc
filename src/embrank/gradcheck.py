"""Finite-difference verification of analytic gradients.

The checker is deliberately independent of the tape: the numeric side
only ever calls the function being checked and reads scalar outputs, so
it cannot inherit a bug from the backward rules it is auditing.

Error metric: per coordinate, |analytic - numeric| / max(|analytic|, |numeric|)
when either magnitude exceeds ``REL_FLOOR``, plain absolute difference
below that (central differences bottom out near 1e-10 in double
precision, so tiny true gradients would otherwise produce 0/0 noise).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .autodiff import Tensor, backward
from .errors import ShapeError

REL_FLOOR = 1e-4


def relative_errors(analytic: np.ndarray, numeric: np.ndarray) -> np.ndarray:
    scale = np.maximum(np.abs(analytic), np.abs(numeric))
    denom = np.where(scale > REL_FLOOR, scale, 1.0)
    return np.abs(analytic - numeric) / denom


@dataclass
class GradCheckReport:
    name: str
    n_coords: int
    max_rel_error: float
    step: float
    tol: float
    passed: bool

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"gradcheck {self.name}: coords={self.n_coords} "
                f"max_rel_err={self.max_rel_error:.3e} step={self.step:g} "
                f"tol={self.tol:g} -> {status}")


def finite_diff_check(f: Callable[[Tensor], Tensor], x: Tensor,
                      step: float = 1e-5, tol: float = 1e-5,
                      name: str = "f") -> GradCheckReport:
    """Compare d f(x) / dx against central differences, coordinate by coordinate.

    ``f`` must return a scalar tensor and must not cache state between calls;
    ``x.data`` is perturbed in place and restored.
    """
    if not x.requires_grad:
        raise ValueError("finite_diff_check: x must have requires_grad=True")
    return finite_diff_check_many(lambda: f(x), {name: x}, step=step, tol=tol)[0]


def finite_diff_check_many(f: Callable[[], Tensor],
                           named: Mapping[str, Tensor],
                           step: float = 1e-5, tol: float = 1e-5) -> list[GradCheckReport]:
    """Check the gradient of a zero-argument scalar function w.r.t. several tensors.

    One analytic backward pass supplies all gradients; the numeric side then
    sweeps every coordinate of every named tensor.
    """
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    for t in named.values():
        t.grad = None
    out = f()
    if out.shape != ():
        raise ShapeError(f"finite_diff_check_many: f must be scalar-valued, got shape {out.shape}")
    backward(out)
    analytic = {name: (np.zeros_like(t.data) if t.grad is None else t.grad.copy())
                for name, t in named.items()}

    reports = []
    for name, t in named.items():
        numeric = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        num_flat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = f().item()
            flat[i] = orig - step
            f_minus = f().item()
            flat[i] = orig
            num_flat[i] = (f_plus - f_minus) / (2.0 * step)
        max_err = float(relative_errors(analytic[name], numeric).max()) if flat.size else 0.0
        reports.append(GradCheckReport(name=name, n_coords=int(flat.size),
                                       max_rel_error=max_err, step=step, tol=tol,
                                       passed=max_err < tol))
    return reports


def format_reports(reports: list[GradCheckReport]) -> str:
    lines = [str(r) for r in reports]
    worst = max((r.max_rel_error for r in reports), default=0.0)
    ok = all(r.passed for r in reports)
    lines.append(f"overall: {len(reports)} checks, worst max_rel_err={worst:.3e} "
                 f"-> {'PASS' if ok else 'FAIL'}")
    return "\n".join(lines)
