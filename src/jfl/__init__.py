"""Exact weak Jacobi forms of index congruent to zero: series, ring,
pages, genus, and the verification suite tying them together.  Importing
the package loads no submodule: each name below loads its module on
first access (PEP 562)."""

from importlib import import_module

_EXPORTS = {
    "series": """QYSeries SeriesError MixedParity BadExponent NonDivisible
        make_series exact_divide render_text render_json_dict""",
    "generators": """generator_table gen_a gen_b2 gen_b3 gen_b4 gen_b8
        theta_quotient stabilizer_power eisenstein_c4 eisenstein_c6
        discriminant verify_relation verify_mf_embedding
        mf_embedding_report CALIBRATION""",
    "ring": """JFElement Inhomogeneous normal_form degree_basis
        element_coords eval_series in_image image_basis cokernel
        cokernel_representatives render_element_text render_element_json
        ONE B2 B3 B4 B8 IMAGE_GENERATORS""",
    "lattice": """smith_normal_form hermite_normal_form kernel_basis
        determinant FPAbelianGroup""",
    "spectral": """PageSpec PageGenerator BigradedPage homology_at
        NotAComplex UnsupportedDegree tjf_page msu_page msu_sub_page
        homotopy_groups free_kernel_lattice surjectivity_check
        check_tjf_groups DEVIATIONS""",
    "genus": """ChernData chern_data product_chern_data milnor_s
        euler_characteristic genus_deg4 genus_deg6 genus_deg8
        elliptic_genus generator_genus_table NonIntegralGenus
        UnsupportedDim""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}

__all__ = list(_EXPORTS) + list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return import_module("." + name, __name__)
    if name in _MODULE_OF:
        return getattr(import_module("." + _MODULE_OF[name], __name__), name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))
