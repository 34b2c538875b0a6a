"""Kernel ridge regression with an HMatrix-compressed kernel.

The paper's Section 1 workload: ``(K + lam I) alpha = y`` solved
iteratively, with the O(N^2) kernel products replaced by HMatrix products.
The regularized system is a composed operator — ``K + lam * I`` built from
a :class:`~repro.api.operator.KernelOperator` — handed straight to CG (no
hand-rolled ``apply_A`` closure). Prediction on training points reuses the
same HMatrix; prediction on new points evaluates the (rectangular) kernel
block directly.
"""

from __future__ import annotations

import numpy as np

from repro.api.operator import KernelOperator, LinearOperator
from repro.api.plan import PlanConfig
from repro.api.policy import ExecutionPolicy
from repro.core.hmatrix import HMatrix
from repro.kernels.base import Kernel, get_kernel
from repro.solvers.cg import conjugate_gradient
from repro.utils.validation import check_points, require


class KernelRidgeRegression:
    """Kernel ridge regression: compress once, solve and predict fast.

    Parameters
    ----------
    kernel:
        Kernel instance or registered name.
    lam:
        Ridge regularization strength (adds ``lam * I`` to the kernel).
    structure, bacc, leaf_size, seed, **plan_kw:
        Inspection knobs, validated into a :class:`PlanConfig`.
    plan:
        A ready-made :class:`PlanConfig` (mutually exclusive with the loose
        knobs above).
    policy:
        :class:`ExecutionPolicy` bound to the kernel operator during the
        solve (defaults to the shared policy default).
    session:
        Optional :class:`~repro.api.session.Session`; when given,
        inspection routes through its plan cache, so refitting on the same
        points (e.g. a lambda sweep) skips phase-1 inspection.
    """

    def __init__(self, kernel: Kernel | str = "gaussian", lam: float = 1e-3,
                 structure: str = "h2-b", bacc: float = 1e-7,
                 leaf_size: int = 64, seed: int = 0, cg_tol: float = 1e-8,
                 cg_max_iter: int = 500, plan: PlanConfig | None = None,
                 policy: ExecutionPolicy | None = None,
                 session=None, **plan_kw):
        require(lam > 0, "lam must be positive")
        self.kernel = get_kernel(kernel) if isinstance(kernel, str) else kernel
        self.lam = float(lam)
        self.cg_tol = cg_tol
        self.cg_max_iter = cg_max_iter
        if plan is not None:
            if plan_kw:
                raise TypeError(
                    f"pass either plan= or loose inspection kwargs, not "
                    f"both (got plan and {sorted(plan_kw)})"
                )
            self.plan = plan
        else:
            self.plan = PlanConfig.from_kwargs(
                structure=structure, bacc=bacc, leaf_size=leaf_size,
                seed=seed, **plan_kw)
        self.policy = policy
        self.session = session
        self.hmatrix: HMatrix | None = None
        self.operator_: LinearOperator | None = None
        self.alpha_: np.ndarray | None = None
        self.X_: np.ndarray | None = None
        self.cg_result_ = None

    def fit(self, X, y) -> "KernelRidgeRegression":
        """Compress K(X, X) and solve ``(K + lam I) alpha = y`` with CG."""
        X = check_points(X, name="X")
        y = np.ascontiguousarray(y, dtype=np.float64)
        if y.shape[0] != len(X):
            raise ValueError(f"y has {y.shape[0]} rows, X has {len(X)}")
        self.X_ = X
        make = (self.session.operator if self.session is not None
                else KernelOperator.from_points)
        K = make(X, kernel=self.kernel, plan=self.plan,
                 policy=self.policy).materialize()
        self.hmatrix = K.hmatrix
        self.operator_ = K.shifted(self.lam)

        self.cg_result_ = conjugate_gradient(
            self.operator_, y, tol=self.cg_tol, max_iter=self.cg_max_iter
        )
        self.alpha_ = self.cg_result_.x
        return self

    def predict(self, X_new) -> np.ndarray:
        """``K(X_new, X_train) @ alpha`` (exact rectangular kernel block).

        The kernel's regulariser (:attr:`Kernel.diagonal_shift`) is jitter
        on the training system, so a prediction never adds it, whether
        ``X_new`` is the array passed to :meth:`fit` or a copy of it.
        """
        if self.alpha_ is None:
            raise RuntimeError("fit() must be called before predict()")
        X_new = check_points(X_new, name="X_new")
        # block() adds the regulariser only when both arguments are the
        # same array object; a fresh view of the training points never is.
        return self.kernel.block(X_new, self.X_.view()) @ self.alpha_

    def training_residual(self, y) -> float:
        """``||(K~ + lam I) alpha - y|| / ||y||`` on the training set."""
        if self.alpha_ is None:
            raise RuntimeError("fit() must be called before residuals")
        y = np.asarray(y, dtype=np.float64)
        r = self.operator_ @ self.alpha_ - y
        return float(np.linalg.norm(r) / max(np.linalg.norm(y), 1e-300))
