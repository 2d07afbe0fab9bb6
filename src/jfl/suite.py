"""The checks that `jfl verify-all` runs, apart from the CLI so that no
other command loads them.  SUITE is their one registry: criteria 1-8 of
the acceptance gate call the same entries."""

from . import generators, genus, ring, spectral
from .series import render_text


def _relation():
    return generators.verify_relation(9)


def _anchors():
    table = generators.generator_table(2)
    checks = [
        render_text(table.b4).startswith("y^-1 + 4 + y"),
        render_text(table.a).startswith("-y^(-1/2) + y^(1/2)"),
        table.b2.q_layer(0) == {-2: 1, 0: 10, 2: 1},
        table.b3.q_layer(0) == {-1: 1, 1: 1},
        table.b4.q_layer(0) == {-2: 1, 0: 4, 2: 1},
        table.b8.q_layer(0) == {-2: 1, 0: 1, 2: 1},
        table.b2.specialize_z0()[0] == 12,
        table.b3.specialize_z0()[0] == 2,
        (table.b2 * table.b2).q_layer(0)
        == {-4: 1, -2: 20, 0: 102, 2: 20, 4: 1},
    ]
    return all(checks)


def _modular_embeddings():
    report = generators.mf_embedding_report(9)
    return (set(report) == {"c4", "c6", "delta", "mf_relation"}
            and all(report.values()))


def _bordism_table():
    _, rows, ok = spectral.compare_homotopy("msu", 16)
    return ok and all(r["match"] for r in rows)


def _target_homotopy():
    # pi_4 is carried by the doubled class: the image lattice is (2)
    if spectral.free_kernel_lattice(spectral.tjf_page(24), 4) != [[2]]:
        return False
    report = spectral.check_tjf_groups(24)
    return (report["status"] == "ok"
            and all(r["match"] for r in report["rows"])
            and all(r["match"] for r in report["image_rows"]))


def _image():
    for d in range(0, 65, 2):
        ring.cokernel(d)  # raises ArithmeticError unless certified
    if not all(ring.in_image(g) for g in ring.IMAGE_GENERATORS):
        return False
    return not ring.in_image(ring.B2) and not ring.in_image(ring.B2 * ring.B8)


def _surjectivity():
    for n in (-1, 0, 1, 2):
        report = spectral.surjectivity_check(n, 32)
        if not (report["status"] == "ok" and report["first_failure"] is None
                and report["bidegrees_checked"] > 0):
            return False
    return True


def _genus():
    k3 = genus.chern_data(2, c2=24)
    sextic = genus.chern_data(4, c2sq=1350, c4=2610)
    g8 = genus.genus_deg8(sextic)
    z0 = ring.eval_series(g8, 1)[0].specialize_z0()[0]
    two_b2 = ring.B2.scale(2)
    checks = [
        genus.genus_deg4(k3) == two_b2,
        ring.render_element_text(g8) == "387*b4 + 2*b2^2",
        z0 == 2610 == genus.euler_characteristic(sextic),
        genus.genus_deg6(genus.chern_data(3, c3=0)).is_zero(),
        genus.genus_deg8(genus.product_chern_data(k3, k3)) == two_b2 * two_b2,
        all(ring.in_image(v)
            for n in (-1, 0, 1, 2)
            for v in genus.generator_genus_table(n).values()),
    ]
    return all(checks)


SUITE = (
    ("series relation through q^8", _relation),
    ("generator anchors", _anchors),
    ("modular embeddings through q^8", _modular_embeddings),
    ("bordism table through degree 16", _bordism_table),
    ("homotopy of the target through degree 24", _target_homotopy),
    ("image lattice and cokernels through degree 64", _image),
    ("surjectivity at parameters -1, 0, 1, 2", _surjectivity),
    ("genus examples and generator table", _genus),
)
