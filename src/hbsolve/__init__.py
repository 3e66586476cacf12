"""Fast direct solver for Nystrom-discretized boundary integral equations
on curves, via hierarchically block-separable matrix compression.

Submodules are imported lazily so the CLI can pin BLAS thread counts
through environment variables before numpy loads.
"""

__version__ = "0.1.0"

_EXPORTS = {
    # geometry
    "Contour": "geometry",
    "UnitCircle": "geometry",
    "SmoothStar": "geometry",
    "CornerStar": "geometry",
    "Snake": "geometry",
    "PanelDecomposition": "geometry",
    "make_contour": "geometry",
    "decompose": "geometry",
    "save_geometry_spec": "geometry",
    "load_geometry_spec": "geometry",
    # quadrature
    "QuadratureGrid": "quadrature",
    "gauss_legendre": "quadrature",
    "build_grid": "quadrature",
    "assemble_dlp": "quadrature",
    "dense_matvec": "quadrature",
    "eval_dlp_potential": "quadrature",
    "harmonic_trace": "quadrature",
    "interior_probe_points": "quadrature",
    "save_grid_csv": "quadrature",
    "load_grid_csv": "quadrature",
    # low-rank factorizations
    "InterpolatoryDecomposition": "lowrank",
    "id_row": "lowrank",
    # tree and HBS container
    "IndexTree": "tree",
    "build_tree": "tree",
    "HbsMatrix": "hbs",
    "hbs_matvec": "hbs",
    "hbs_transpose": "hbs",
    "expand_dense": "hbs",
    "validate": "hbs",
    # inversion
    "BlockSeparableMatrix": "inversion",
    "BlockSeparableInverse": "inversion",
    "bs_invert": "inversion",
    "HbsInverse": "inversion",
    "hbs_invert": "inversion",
    "apply_inverse": "inversion",
    "inverse_to_hbs": "inversion",
    "inverse_transpose": "inversion",
    "reformat_orthonormal": "inversion",
    "SingularBlockError": "inversion",
    # compression
    "CompressionConfig": "compression",
    "SkeletonSet": "compression",
    "NystromDlpKernel": "compression",
    "compress": "compression",
    "compress_dense": "compression",
    "compress_proxy": "compression",
    "solve_workflow": "compression",
    # diagnostics and serialization
    "power_norm": "diagnostics",
    "estimate_solver_error": "diagnostics",
    "save_hbs": "serialization",
    "save_inverse": "serialization",
    "load": "serialization",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        import importlib

        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
