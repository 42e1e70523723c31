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

A configuration is read in one pass.  The components get slots
``0..n-1`` and the singular pieces ``n..n+m-1``, in declaration order;
each branch is resolved to its two slots as it is read (of two entries
with one id, the last one), and its maps are parsed against the groups
at those slots.  With unique ids and at least one component that
reading proves the head of ``scheme.validate``, so the parser runs only
its tail, ``scheme.check_incidence``, which leaves the validated
``Incidence`` record on the configuration; otherwise it leaves none,
and the first reader's ``validate`` reports the violation.

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
from .scheme import (Branch, Component, SchemeConfig, Singular,
                     check_incidence)
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

    # Equal group JSON gives one GroupSpec, and one branch shape (its
    # group JSON, the groups at its two ends, its psi and phi JSON, an
    # absent map as None) one group and one pair of Homos, each parsed
    # and checked once.  The keys are exact: repr tells 2 from 2.0 and
    # True, where == does not, and GroupSpec equality ignores generator
    # names.  The groups are held to the end of the parse, so their ids
    # identify them in the shape key.  Only a success is kept: an error
    # raises at the first occurrence, with its path, in the order of
    # the fields: the ids, the group, the two references, psi, phi.
    groups, shapes = {}, {}

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

    # components are slots 0..n-1 and singular pieces n..n+m-1, in
    # declaration order; of two entries with one id the last is the one
    # a reference resolves to, and validation reports the duplicate
    def pieces(docs, kind, section, what, first):
        out, slot = [], {}
        for i, entry in enumerate(docs):
            if not isinstance(entry, dict):
                raise SchemaError(f"$.{section}[{i}]", f"expected {what}")
            pid = entry.get("id")
            if type(pid) is not str:
                pid = _field(entry, "id", section, i)
            out.append(kind(pid, group_at(entry, section, i)))
            slot[pid] = first + i
        return out, slot

    components, comp_slot = pieces(comps_doc, Component, "components",
                                   "a component object", 0)
    n = len(components)
    singulars, sing_slot = pieces(sings_doc, Singular, "singulars",
                                  "a singular-piece object", n)

    branches, ends = [], []
    for i, b in enumerate(branches_doc):
        if not isinstance(b, dict):
            raise SchemaError(f"$.branches[{i}]", "expected a branch object")
        bid, comp, sing = b.get("id"), b.get("component"), b.get("singular")
        if not type(bid) is type(comp) is type(sing) is str:
            # the first missing or ill-typed field raises
            bid = _field(b, "id", "branches", i)
            comp = _field(b, "component", "branches", i, "a component id")
            sing = _field(b, "singular", "branches", i, "a singular id")
        c, s = comp_slot.get(comp), sing_slot.get(sing)
        if c is None or s is None:
            group_at(b, "branches", i)   # a bad group is reported first
            if c is None:
                raise SchemaError(f"$.branches[{i}].component",
                                  f"unknown component id {comp!r}")
            raise SchemaError(f"$.branches[{i}].singular",
                              f"unknown singular id {sing!r}")
        psi_doc, phi_doc = b.get("psi"), b.get("phi")
        psi_key = None if psi_doc is None else repr(psi_doc)
        phi_key = None if phi_doc is None else repr(phi_doc)
        comp_group, sing_group = components[c].group, singulars[s - n].group
        key = (repr(b.get("group")), id(comp_group), id(sing_group),
               psi_key, phi_key)
        shape = shapes.get(key)
        if shape is None:
            group = group_at(b, "branches", i)
            # relator-triviality is semantic, not schema: InputError
            # escapes
            psi = Homo(group, comp_group, _parse_images(
                psi_doc, f"$.branches[{i}].psi", group, comp_group))
            # phi with psi's JSON between the same groups parses to psi
            phi = psi if phi_key == psi_key and sing_group is comp_group \
                else Homo(group, sing_group, _parse_images(
                    phi_doc, f"$.branches[{i}].phi", group, sing_group))
            shape = shapes[key] = (group, psi, phi)
        branches.append(Branch(bid, comp, sing, *shape))
        ends.append((c, s))

    cfg = SchemeConfig(components, singulars, branches)
    # every reference resolved and every map runs between the groups of
    # its ends, so with unique ids and a component only the incidence is
    # left to check; otherwise validation reports the first violation
    if n and len(comp_slot) == n and len(sing_slot) == len(singulars) \
            and len({b.id for b in branches}) == len(branches):
        check_incidence(cfg, ends)
    return cfg


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
