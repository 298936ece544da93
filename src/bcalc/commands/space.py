"""``bcalc space``: model corners and blow-ups."""


def _quadrant(args):
    from .. import geometry as geo

    names = tuple(args.names.split(",")) if args.names else None
    lat = geo.model_quadrant(args.k, args.n, names)
    payload = lat.to_jsonable()
    lines = [f"quadrant: {args.k} boundary hypersurfaces in dimension {args.n}",
             f"bhs: {', '.join(lat.bhs_names)}",
             f"faces: {payload['faces']}"]
    return payload, lines, 0


def _blowup(args, lat):
    from .. import geometry as geo

    rec = geo.blow_up_face(lat, args.center.split(","), args.name)
    payload = {
        "center": sorted(rec.center),
        "front_face": rec.front_face_name,
        "result": rec.result.to_jsonable(),
        "blowdown": rec.blowdown.to_jsonable(),
    }
    lines = [f"blew up {sorted(rec.center)} -> front face {rec.front_face_name}",
             f"result bhs: {', '.join(rec.result.bhs_names)}",
             f"faces: {payload['result']['faces']}"]
    return payload, lines, 0


def _triple(args):
    from .. import geometry as geo

    lattice, _records = geo.triple_b_space()
    payload = {
        "lattice": lattice.to_jsonable(),
        "blowdown": geo.x3b_blowdown().to_jsonable(),
        "lifted_projections": {
            str(i): geo.lifted_projection(i).to_jsonable() for i in (1, 2, 3)
        },
    }
    lines = [f"triple space bhs: {', '.join(lattice.bhs_names)}",
             f"{len(lattice.proper_faces())} proper faces"]
    return payload, lines, 0


ACTIONS = {
    "quadrant": (_quadrant, (), ("-k", "-n", "--names")),
    "blowup": (_blowup, ("FaceLattice",), ("--center", "--name")),
    "triple": (_triple, (), ()),
}
