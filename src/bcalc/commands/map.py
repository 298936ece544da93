"""``bcalc map``: b-map descriptors."""


def _compose(args, f, g):
    from .. import bmaps

    c = bmaps.compose(f, g)
    lines = ["exponent matrix rows (source bhs) x columns (target bhs):"]
    for name, row in zip(c.source.bhs_names, c.exponents):
        lines.append(f"  {name:<6} {list(row)}")
    return c.to_jsonable(), lines, 0


def _facemap(args, f):
    from .. import bmaps

    face = [] if args.face in ("", "-") else args.face.split(",")
    image = bmaps.induced_face_map(f, face)
    payload = {"face": sorted(face), "image": sorted(image)}
    return payload, [f"{sorted(face)} -> {sorted(image)}"], 0


def _check_bfibration(args, f):
    from .. import bmaps

    report = bmaps.check_b_fibration(f)
    lines = [f"codimension condition: {'ok' if report.codim_ok else 'VIOLATED'}"]
    if report.violating_faces:
        lines.append(f"violating bhs: {', '.join(report.violating_faces)}")
    lines.append(f"fibration over open faces (asserted): {report.fibration_on_faces}")
    lines.append(f"b-fibration: {report.verdict}")
    return report.to_jsonable(), lines, 0 if report.verdict else 2


_MAP = "BMapDescriptor"

ACTIONS = {
    "compose": (_compose, (_MAP, _MAP), ()),
    "facemap": (_facemap, (_MAP,), ("--face",)),
    "check-bfibration": (_check_bfibration, (_MAP,), ()),
}
