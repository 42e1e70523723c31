"""JSON ingestion and emission.

The configuration schema::

    {"components": [{"id": ..., "group": GROUP}],
     "singulars":  [{"id": ..., "group": GROUP}],
     "branches":   [{"id": ..., "component": ..., "singular": ...,
                     "group": GROUP,
                     "psi": {GEN: WORD}, "phi": {GEN: WORD}}]}

with GROUP one of ``{"kind": "trivial"}``, ``{"kind": "cyclic",
"order": k}``, ``{"kind": "symmetric", "degree": k}``,
``{"kind": "permutation", "degree": k, "generators": [[...], ...]}``,
``{"kind": "presented", "generators": [...], "relators": [...]}``.
Words are arrays of ``[symbol, exponent]`` pairs over the target
group's canonical generator names; ``psi`` maps into the branch's
component group, ``phi`` into its singular group, each keyed by the
full names of the branch group's canonical generators.  Both may be
omitted when the branch group is trivial.

Generator names are checked here, once, as they are read; inside the
package a word is a tuple of ``(generator index, exponent)`` pairs, and
names are rendered again only when JSON is written.

Structural problems raise ``SchemaError`` with a JSON-path location;
semantic problems (a map that is not a homomorphism, a group over the
order bound) raise ``InputError``/``ResourceError``.
"""

from json.encoder import encode_basestring_ascii as _quote

from .errors import InputError, SchemaError
from .groups import GroupSpec
from .homomorphism import Homo
from .limits import DEFAULT_LIMITS
from .presentation import Presentation, cyclic_relators
from .scheme import Branch, Component, SchemeConfig, Singular
from .words import check_name, reduce


def _expect(value, types, path, what):
    # JSON true and false are never what the schema wants, though bool
    # subclasses int
    if not isinstance(value, types) or isinstance(value, bool):
        raise SchemaError(path, f"expected {what}")
    return value


def _get(doc, key, path, required=True, default=None):
    if key not in doc:
        if required:
            raise SchemaError(path, f"missing required key {key!r}")
        return default
    return doc[key]


def parse_word(doc, path):
    """A freely reduced word over the checked names it spells."""
    _expect(doc, list, path, "a word as a list of [symbol, exponent] pairs")
    letters = []
    for i, pair in enumerate(doc):
        p = f"{path}[{i}]"
        _expect(pair, list, p, "a [symbol, exponent] pair")
        if len(pair) != 2:
            raise SchemaError(p, "expected exactly two entries")
        name, exp = pair
        _expect(name, str, f"{p}[0]", "a generator symbol string")
        _expect(exp, int, f"{p}[1]", "an integer exponent")
        if exp == 0:
            raise SchemaError(f"{p}[1]", "exponent must be non-zero")
        try:
            name = check_name(name)
        except InputError as exc:
            raise SchemaError(f"{p}[0]", str(exc)) from None
        letters.append((name, exp))
    return reduce(letters)


def _indexed(word, index):
    """A word over names as a word over their indices in ``index``."""
    return tuple((index[name], e) for name, e in word)


def word_to_json(word, names):
    return [[names[g], e] for g, e in word]


def parse_presentation(doc, path):
    _expect(doc, dict, path, "a presentation object")
    gen_doc = _get(doc, "generators", path)
    _expect(gen_doc, list, f"{path}.generators", "a list of generator names")
    gens = []
    for i, name in enumerate(gen_doc):
        _expect(name, str, f"{path}.generators[{i}]", "a generator name")
        try:
            gens.append(check_name(name))
        except InputError as exc:
            raise SchemaError(f"{path}.generators[{i}]", str(exc)) from None
    rel_doc = _get(doc, "relators", path, required=False, default=[])
    _expect(rel_doc, list, f"{path}.relators", "a list of words")
    relators = [parse_word(r, f"{path}.relators[{i}]")
                for i, r in enumerate(rel_doc)]
    index = {g: i for i, g in enumerate(gens)}
    if len(index) != len(gens):
        raise SchemaError(path, "duplicate generator symbols in presentation")
    for r in relators:
        bad = {name for name, _ in r} - index.keys()
        if bad:
            raise SchemaError(
                path, f"relator uses undeclared generators: {sorted(bad)}")
    return Presentation._trusted(
        gens, cyclic_relators(_indexed(r, index) for r in relators))


def presentation_to_json(p):
    return {"generators": list(p.generators),
            "relators": [word_to_json(r, p.generators) for r in p.relators]}


def parse_group(doc, path, limits=DEFAULT_LIMITS):
    _expect(doc, dict, path, "a group object")
    kind = _get(doc, "kind", path)
    _expect(kind, str, f"{path}.kind", "a group kind string")
    if kind == "trivial":
        return GroupSpec.trivial()
    if kind == "cyclic":
        order = _get(doc, "order", path)
        _expect(order, int, f"{path}.order", "an integer order")
        if order < 1:
            raise SchemaError(f"{path}.order", "order must be >= 1")
        return GroupSpec.cyclic(order, limits=limits)
    if kind == "symmetric":
        degree = _get(doc, "degree", path)
        _expect(degree, int, f"{path}.degree", "an integer degree")
        if degree < 0:
            raise SchemaError(f"{path}.degree", "degree must be >= 0")
        return GroupSpec.symmetric(degree, limits=limits)
    if kind == "permutation":
        degree = _get(doc, "degree", path)
        _expect(degree, int, f"{path}.degree", "an integer degree")
        gens_doc = _get(doc, "generators", path)
        _expect(gens_doc, list, f"{path}.generators",
                "a list of permutations")
        gens = []
        for i, perm in enumerate(gens_doc):
            p = f"{path}.generators[{i}]"
            _expect(perm, list, p, "a permutation as a list of images")
            if len(perm) != degree \
                    or not all(type(x) is int for x in perm) \
                    or sorted(perm) != list(range(degree)):
                raise SchemaError(p, f"not a permutation of 0..{degree - 1}")
            gens.append(tuple(perm))
        try:
            return GroupSpec.permutation(degree, gens, limits=limits)
        except InputError as exc:
            raise SchemaError(path, str(exc)) from None
    if kind == "presented":
        pres = parse_presentation(doc, path)
        return GroupSpec.presented(pres, limits=limits)
    raise SchemaError(f"{path}.kind", f"unknown group kind {kind!r}")


def group_to_json(spec):
    kind = spec.kind
    if kind == "trivial":
        return {"kind": "trivial"}
    if kind == "cyclic":
        return {"kind": "cyclic", "order": spec.params[0]}
    if kind == "symmetric":
        return {"kind": "symmetric", "degree": spec.params[0]}
    if kind == "permutation":
        degree, gens = spec.params
        return {"kind": "permutation", "degree": degree,
                "generators": [list(g) for g in gens]}
    out = presentation_to_json(spec.canonical_presentation)
    out["kind"] = "presented"
    return out


def _parse_images(doc, path, source, target):
    """The generator images of a branch attaching homomorphism, one word
    over the target's generators per source generator, in order."""
    declared = source.canonical_presentation.generators
    if doc is None:
        if source.order != 1:
            raise SchemaError(path, "map may only be omitted when the "
                              "branch group is trivial")
        return ((),) * len(declared)
    _expect(doc, dict, path, "a map of generator names to words")
    images = {}
    for name, word_doc in doc.items():
        if name not in declared:
            raise SchemaError(f"{path}.{name}",
                              f"unknown branch-group generator {name!r}")
        images[name] = parse_word(word_doc, f"{path}.{name}")
    missing = set(declared) - set(doc)
    if missing:
        raise SchemaError(path, f"missing images for {sorted(missing)}")
    index = {g: i for i, g in enumerate(target.canonical_presentation
                                        .generators)}
    for name, w in images.items():
        bad = {s for s, _ in w} - index.keys()
        if bad:
            raise SchemaError(f"{path}.{name}",
                              "image uses symbols outside the target group: "
                              + ", ".join(sorted(bad)))
    return tuple(_indexed(images[g], index) for g in declared)


def _hom_to_json(hom):
    names = hom.target.canonical_presentation.generators
    return {g: word_to_json(w, names) for g, w in
            zip(hom.source.canonical_presentation.generators, hom.images)}


def _field(entry, key, section, i, what="an id string"):
    """The string ``entry[key]`` of entry ``i`` of a top-level list; its
    JSON path is written only for an error."""
    if key not in entry:
        raise SchemaError(f"$.{section}[{i}]", f"missing required key {key!r}")
    value = entry[key]
    if not isinstance(value, str):
        raise SchemaError(f"$.{section}[{i}].{key}", f"expected {what}")
    return value


def parse_scheme_config(doc, limits=DEFAULT_LIMITS):
    _expect(doc, dict, "$", "a configuration object")
    comps_doc = _expect(_get(doc, "components", "$"), list,
                        "$.components", "a list of components")
    sings_doc = _expect(_get(doc, "singulars", "$", required=False,
                             default=[]), list,
                        "$.singulars", "a list of singular pieces")
    branches_doc = _expect(_get(doc, "branches", "$", required=False,
                                default=[]), list,
                           "$.branches", "a list of branches")

    # Equal group JSON gives one GroupSpec, and equal map JSON between
    # the same two groups one Homo, each parsed and checked once.  The
    # keys are the exact JSON values, since GroupSpec equality ignores
    # generator names; the groups are held to the end of the parse, so
    # their ids identify them in the map key.  Only a success is kept:
    # an error raises at the first occurrence, with its path.
    groups, homs = {}, {}

    def group_at(entry, section, i):
        if "group" not in entry:
            raise SchemaError(f"$.{section}[{i}]",
                              "missing required key 'group'")
        doc = entry["group"]
        key = repr(doc)
        group = groups.get(key)
        if group is None:
            group = groups[key] = parse_group(
                doc, f"$.{section}[{i}].group", limits)
        return group

    def hom_at(entry, name, i, source, target):
        doc = entry.get(name)
        key = (repr(doc), id(source), id(target))
        hom = homs.get(key)
        if hom is None:
            images = _parse_images(doc, f"$.branches[{i}].{name}", source,
                                   target)
            # relator-triviality is semantic, not schema: InputError escapes
            hom = homs[key] = Homo(source, target, images)
        return hom

    components = []
    for i, c in enumerate(comps_doc):
        if not isinstance(c, dict):
            raise SchemaError(f"$.components[{i}]",
                              "expected a component object")
        cid = _field(c, "id", "components", i)
        components.append(Component(cid, group_at(c, "components", i)))

    singulars = []
    for i, s in enumerate(sings_doc):
        if not isinstance(s, dict):
            raise SchemaError(f"$.singulars[{i}]",
                              "expected a singular-piece object")
        sid = _field(s, "id", "singulars", i)
        singulars.append(Singular(sid, group_at(s, "singulars", i)))

    comp_group = {c.id: c.group for c in components}
    sing_group = {s.id: s.group for s in singulars}

    branches = []
    for i, b in enumerate(branches_doc):
        if not isinstance(b, dict):
            raise SchemaError(f"$.branches[{i}]", "expected a branch object")
        bid = _field(b, "id", "branches", i)
        comp = _field(b, "component", "branches", i, "a component id")
        sing = _field(b, "singular", "branches", i, "a singular id")
        group = group_at(b, "branches", i)
        if comp not in comp_group:
            raise SchemaError(f"$.branches[{i}].component",
                              f"unknown component id {comp!r}")
        if sing not in sing_group:
            raise SchemaError(f"$.branches[{i}].singular",
                              f"unknown singular id {sing!r}")
        psi = hom_at(b, "psi", i, group, comp_group[comp])
        phi = hom_at(b, "phi", i, group, sing_group[sing])
        branches.append(Branch(bid, comp, sing, group, psi, phi))

    return SchemeConfig(components, singulars, branches)


def scheme_config_to_json(cfg):
    return {
        "components": [{"id": c.id, "group": group_to_json(c.group)}
                       for c in cfg.components],
        "singulars": [{"id": s.id, "group": group_to_json(s.group)}
                      for s in cfg.singulars],
        "branches": [{"id": b.id, "component": b.component,
                      "singular": b.singular,
                      "group": group_to_json(b.group),
                      "psi": _hom_to_json(b.psi),
                      "phi": _hom_to_json(b.phi)}
                     for b in cfg.branches],
    }


def _piece_to_json(fields):
    return {**fields, "group": group_to_json(fields["group"])}


def expression_to_json(nodes):
    """An expression's node table, its groups written out, and its root."""
    out = []
    for node in nodes:
        if node["type"] == "atom":
            node = _piece_to_json(node)
        elif node["type"] == "fibered_coproduct":
            node = {**node, "base": _piece_to_json(node["base"])}
        elif node["type"] == "vk":
            node = {**node, "legs": [_piece_to_json(leg)
                                     for leg in node["legs"]]}
        out.append(node)
    return {"nodes": out, "root": len(nodes) - 1}


def pi1_result_to_json(result, simplified=True):
    pres = result.presentation if simplified else result.raw_presentation
    return {
        "expression": expression_to_json(result.expression),
        "presentation": presentation_to_json(pres),
        "derivation": [step.to_json() for step in result.derivation],
    }


def json_text(value):
    """``value`` as ``json.dumps(value, indent=2)`` writes it, byte for
    byte.

    ``value`` is made of dicts with str keys, lists, str, int, bool and
    None; anything else raises ``TypeError``.  Strings go through the C
    function ``json.dumps`` quotes them with.  With ``indent`` set the
    stdlib runs its pure-Python encoder, a chain of generators, which
    this writer, appending to one list, outruns.  Every int is written
    exactly, also one over the interpreter's digit limit for ``str``,
    where ``json.dumps`` raises ``ValueError``.
    """
    out = []
    _write(value, "\n", out.append)
    return "".join(out)


def _write(value, newline, put):
    if isinstance(value, str):
        put(_quote(value))
    elif value is None:
        put("null")
    elif value is True:
        put("true")
    elif value is False:
        put("false")
    elif isinstance(value, int):
        put(_int_text(value))
    elif isinstance(value, list):
        if not value:
            put("[]")
            return
        inner = newline + "  "
        comma, sep = "," + inner, "[" + inner
        for x in value:
            put(sep)
            _write(x, inner, put)
            sep = comma
        put(newline + "]")
    elif isinstance(value, dict):
        if not value:
            put("{}")
            return
        inner = newline + "  "
        comma, sep = "," + inner, "{" + inner
        for k, x in value.items():
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            put(sep)
            put(_quote(k))
            put(": ")
            _write(x, inner, put)
            sep = comma
        put(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} "
                        f"is not JSON serializable")


_CHUNK_DIGITS = 500     # under 640, the least digit limit Python allows


def _int_text(n):
    try:
        return int.__repr__(n)
    except ValueError:
        # over the digit limit: convert in chunks, each under any limit
        pass
    sign, n = ("-", -n) if n < 0 else ("", n)
    chunks = []
    while n:
        n, r = divmod(n, 10 ** _CHUNK_DIGITS)
        chunks.append(r)
    return sign + str(chunks.pop()) + "".join(
        f"{r:0{_CHUNK_DIGITS}d}" for r in reversed(chunks))
