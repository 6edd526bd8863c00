"""Seeded workload generators and their references.

Nothing here imports ltlx.  Every input is built from a small tuple model
of XML nodes, written out as text by this module's own serializer, and
every expected output comes from the generator itself, from
xml.etree.ElementTree, from Python set algebra, or from closed-form
token counts.  The program under test only ever sees the generated text.

Model nodes:
    ("e", name, ((attr, value), ...), (child, ...))
    ("t", text)      ("p", "target data")      ("c", comment)
"""

from __future__ import annotations

import math
import os
import random
import xml.etree.ElementTree as ET

_TEXT_ESC = (("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ("\r", "&#13;"))
_ATTR_ESC = _TEXT_ESC[:3] + (('"', "&quot;"), ("\t", "&#9;"), ("\n", "&#10;"), ("\r", "&#13;"))
PI_MARK, COMMENT_MARK, ATTR_MARK = "", "", ""

SAFE_WORDS = ("alpha", "beta", "café", "λόγος", "中文", "x<y", "a&b")
WORDS = (
    "alpha beta gamma delta omega café naïve λόγος 中文 fish&chips a<b c>d "
    'say"hi" it\'s tab\there line\nbreak cr\rret plain words of text'
).split(" ")


def _esc(value: str, table) -> str:
    for raw, ref in table:
        value = value.replace(raw, ref)
    return value


def serialize(node, canonical: bool = False) -> str:
    """Serialize a model node the way ltlx writes XML; iterative, so depth is free."""
    out: list[str] = []
    stack = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        kind = item[0]
        if kind == "t":
            out.append(_esc(item[1], _TEXT_ESC))
        elif kind == "p":
            out.append(f"<?{item[1]}?>")
        elif kind == "c":
            out.append(f"<!--{item[1]}-->")
        else:
            _, name, attrs, kids = item
            if canonical:
                attrs = sorted(attrs)
            out.append("<" + name)
            out.extend(f' {k}="{_esc(v, _ATTR_ESC)}"' for k, v in attrs)
            if not kids:
                out.append("/>")
                continue
            out.append(">")
            stack.append(f"</{name}>")
            stack.extend(reversed(kids))
    return "".join(out)


def encode(node):
    """The element/text-only image of a model node (reference for ltlx encode)."""
    kind = node[0]
    if kind == "t":
        return node
    if kind == "p":
        return ("t", PI_MARK + node[1])
    if kind == "c":
        return ("t", COMMENT_MARK + node[1])
    _, name, attrs, kids = node
    wrapped = tuple(("e", k, (), (("t", ATTR_MARK + v),)) for k, v in attrs)
    return ("e", name, (), wrapped + tuple(encode(k) for k in kids))


def count_nodes(node) -> int:
    total, stack = 0, [node]
    while stack:
        item = stack.pop()
        total += 1
        if item[0] == "e":
            stack.extend(item[3])
    return total


def ladder(lo: float, hi: float, steps: int) -> list[int]:
    """`steps` sizes spaced evenly on a log scale from lo to hi, inclusive."""
    if steps == 1:
        return [int(lo)]
    ratio = (hi / lo) ** (1 / (steps - 1))
    return [int(round(lo * ratio**i)) for i in range(steps)]


def _words(rng: random.Random, lo: int = 1, hi: int = 3) -> str:
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(lo, hi)))


def _leaf(name: str, content: str, attrs=()):
    return ("e", name, tuple(attrs), (("t", content),))


class Op:
    """One operation: its input, its expected output, its size in nodes and its group."""

    __slots__ = ("kind", "data", "expected", "nodes", "group")

    def __init__(self, kind, data, expected, nodes, group):
        self.kind, self.data, self.expected = kind, data, expected
        self.nodes, self.group = nodes, group

    def as_json(self):
        return {"kind": self.kind, "data": self.data, "expected": self.expected,
                "nodes": self.nodes, "group": self.group}


# --- wide-transform ---------------------------------------------------------

WIDE_RULES = r"""% Catalog rules.  Most items only match rule 6 or 7, after five misses.
template(element(header,_,[text(T)]),[element(h1,[],[text(T)])]).
template(X,[element(flagged,[],[text(N)])]):-
   transform(X@flag,F),F="hot",transform(X/name#,N).
template(element(item,_,[element(name,_,[text(N)]),element(dvd,_,_)]),[element(film,[],[text(N)])]).
template(element(item,_,[element(name,_,[text(N)]),element(cd,_,_)]),[element(album,[],[text(N)])]).
template(element(item,_,[element(name,_,_),element(isbn,_,[text(I)])]),[element(book,[],[text(I)])]).
template(element(item,A,[element(name,_,[text(N)]),element(price,_,[text(P)])]),
   [element(row,A,[element(n,[],[text(N)]),element(p,[],[text(P)])])]).
template(element(item,A,[element(name,_,[text(N)]),element(price,_,[text(P)]),element(note,_,[text(M)])]),
   [element(row,A,[element(n,[],[text(N)]),element(p,[],[text(P)])]),element(note,[],[text(M)])]).
template(element(item,_,_),[element(other,[],[])]).
"""

_WIDE_KINDS = (
    ("price", 62), ("note", 20), ("hot", 4), ("cold", 4),
    ("dvd", 3), ("cd", 3), ("book", 2), ("other", 2),
)


def wide_catalog(rng: random.Random, items: int):
    """A catalog of `items` items and the exact bytes the wide rules produce for it."""
    kids = [_leaf("header", f"Catalog {rng.randint(1, 999)}")]
    out = [("e", "h1", (), (("t", kids[0][3][0][1]),))]
    # Exact shares of each kind, so the cost of a catalog depends on its size only.
    plan = [kind for kind, percent in _WIDE_KINDS for _ in range(round(items * percent / 100))]
    plan = (plan + ["price"] * items)[:items]
    rng.shuffle(plan)
    for i, kind in enumerate(plan):
        name, price = _words(rng), f"{rng.randint(1, 9999) / 100:.2f}"
        attrs = [("sku", f"s{i}"), ("kind", kind)]
        if kind in ("hot", "cold"):
            attrs.insert(1, ("flag", kind))
        body = [_leaf("name", name)]
        if kind == "dvd":
            body.append(("e", "dvd", (("region", "2"),), ()))
            out.append(_leaf("film", name))
        elif kind == "cd":
            body.append(("e", "cd", (), ()))
            out.append(_leaf("album", name))
        elif kind == "book":
            isbn = str(rng.randint(10**9, 10**10))
            body.append(_leaf("isbn", isbn))
            out.append(_leaf("book", isbn))
        elif kind == "other":
            pass
        else:
            body.append(_leaf("price", price))
            if kind == "hot":
                out.append(_leaf("flagged", name))
            else:
                row = ("e", "row", tuple(attrs), (_leaf("n", name), _leaf("p", price)))
                out.append(row)
                if kind == "note":
                    memo = _words(rng)
                    body.append(_leaf("note", memo))
                    out.append(_leaf("note", memo))
        if kind == "other":
            out.append(("e", "other", (), ()))
        kids.append(("e", "item", tuple(attrs), tuple(body)))
    doc = ("e", "catalog", (("v", "1"),), tuple(kids))
    return doc, "".join(serialize(n) for n in out)


def gen_wide(seed: int, sizes: list[int]) -> list[Op]:
    rng = random.Random(seed)
    sizes = list(sizes)
    rng.shuffle(sizes)
    ops = []
    for n in sizes:
        doc, expected = wide_catalog(rng, n)
        ops.append(Op("transform", {"xml": serialize(doc), "rules": "wide"},
                      expected, count_nodes(doc), "catalog"))
    return ops


# --- structural-transform ---------------------------------------------------

STRUCTURAL_RULES = r"""% Section chains: one template/2 goal per level.
template(element(sec,_,[element(t,_,[text(T)]),S]),[element(s,[],[text(T),O])]):-
   template(S,[O]).
template(element(sec,_,[element(t,_,[text(T)])]),[element(s,[],[text(T)])]).
% Binary trees: two template/2 goals per inner node.
template(element(n,_,[element(v,_,[text(V)]),L,R]),
   [element(b,[],[text(V),element(l,[],LO),element(r,[],RO)])]):-
   template(L,LO),template(R,RO).
template(element(n,_,[element(v,_,[text(V)])]),[element(leaf,[],[text(V)])]).
% Equal subtrees, tested by the repeated head variable.
template(element(pair,_,[A,A]),[element(same,[],[text(W)])]):-transform(A//w#1/#,W).
template(element(pair,_,[_,_]),[element(diff,[],[])]).
% Picks: one output per path result in all-solutions mode.
template(element(bag,As,Cs),[element(pick,[],[text(T)])]):-
   B=element(bag,As,Cs),transform(B//k#,T).
"""


def chain(rng: random.Random, depth: int):
    labels = [_words(rng, 1, 2) for _ in range(depth)]
    doc = ("e", "sec", (("d", str(depth)),), (_leaf("t", labels[-1]),))
    out = _leaf("s", labels[-1])
    for label in reversed(labels[:-1]):
        doc = ("e", "sec", (), (_leaf("t", label), doc))
        out = ("e", "s", (), (("t", label), out))
    return doc, serialize(out)


def tree(rng: random.Random, depth: int):
    def build(d):
        value = _words(rng, 1, 1)
        if d == 1:
            return ("e", "n", (), (_leaf("v", value),)), _leaf("leaf", value)
        (left, lo), (right, ro) = build(d - 1), build(d - 1)
        doc = ("e", "n", (), (_leaf("v", value), left, right))
        out = ("e", "b", (), (("t", value), ("e", "l", (), (lo,)), ("e", "r", (), (ro,))))
        return doc, out

    doc, out = build(depth)
    return doc, serialize(out)


def _subtree(rng: random.Random, size: int):
    """A random subtree of about `size` nodes whose first `w` element has one text child."""
    root = ["x", [("id", "0")], []]
    open_elems = [root]
    count = 1
    while count < size:
        parent = rng.choice(open_elems)
        if rng.random() < 0.35 and len(open_elems) < size // 4:
            node = ["g", [], []]
            parent[2].append(node)
            open_elems.append(node)
            count += 1
        else:
            word = _words(rng, 1, 2)
            parent[2].append(_leaf("w", word))
            count += 2
    frozen = _freeze(root)
    first_w = next((n for n in _preorder(frozen) if n[0] == "e" and n[1] == "w"), None)
    if first_w is None:
        word = _words(rng, 1, 1)
        frozen = ("e", "x", frozen[2], frozen[3] + (_leaf("w", word),))
        first_w = _leaf("w", word)
    return frozen, first_w[3][0][1]


def _freeze(node):
    """A model node from a mutable [name, attrs, kids] element under construction."""
    name, attrs, kids = node
    return ("e", name, tuple(attrs), tuple(_freeze(k) if isinstance(k, list) else k for k in kids))


def _preorder(node):
    stack = [node]
    while stack:
        item = stack.pop()
        yield item
        if item[0] == "e":
            stack.extend(reversed(item[3]))


def _change_last_word(node):
    """Copy of `node` with the text of its last `w` element changed."""
    _, name, attrs, kids = node
    for i in range(len(kids) - 1, -1, -1):
        kid = kids[i]
        if kid[0] != "e":
            continue
        if kid[1] == "w":
            new = _leaf("w", kid[3][0][1] + " changed")
        else:
            new = _change_last_word(kid)
            if new is None:
                continue
        return ("e", name, attrs, kids[:i] + (new,) + kids[i + 1:])
    return None


def pair(rng: random.Random, size: int, same: bool):
    sub, word = _subtree(rng, size)
    other = sub if same else _change_last_word(sub)
    doc = ("e", "pair", (), (sub, other))
    out = _leaf("same", word) if same else ("e", "diff", (), ())
    return doc, serialize(out)


def bag(rng: random.Random, picks: int):
    groups, texts, left = [], [], picks
    while left:
        take = min(left, 1 + len(groups) % 8)  # fixed group sizes: the seed changes only the words
        items = []
        for _ in range(take):
            word = _words(rng, 1, 2)
            texts.append(word)
            items.append(_leaf("k", word))
            if len(texts) % 3 == 0:
                items.append(_leaf("z", _words(rng)))
        groups.append(("e", "g", (), tuple(items)))
        left -= take
    doc = ("e", "bag", (("n", str(picks)),), tuple(groups))
    return doc, "".join(serialize(_leaf("pick", t)) for t in texts)


STRUCTURAL_SHAPES = {"chain": (20, 120, 8), "tree": (4, 8, 5), "pair": (50, 400, 6), "pick": (20, 150, 6)}


def gen_structural(seed: int, shapes: dict = STRUCTURAL_SHAPES) -> list[Op]:
    """Chains, trees, equal pairs and all-solutions picks; shapes maps each to (lo, hi, steps)."""
    rng = random.Random(seed)
    plan = [(shape, size, i) for shape, (lo, hi, steps) in shapes.items()
            for i, size in enumerate(ladder(lo, hi, steps))]
    rng.shuffle(plan)
    ops = []
    for shape, size, i in plan:
        mode = "first"
        if shape == "chain":
            doc, expected = chain(rng, size)
        elif shape == "tree":
            doc, expected = tree(rng, size)
        elif shape == "pair":
            doc, expected = pair(rng, size, same=i % 3 != 1)
        else:
            doc, expected = bag(rng, size)
            mode = "all"
        ops.append(Op("transform", {"xml": serialize(doc), "rules": "structural", "mode": mode},
                      expected, count_nodes(doc), shape))
    return ops


def deep_chain_probe(seed: int, depth: int) -> Op:
    doc, expected = chain(random.Random(seed), depth)
    return Op("transform", {"xml": serialize(doc), "rules": "structural", "mode": "first"},
              expected, count_nodes(doc), "deep-chain")


# --- document-pipeline ------------------------------------------------------

PIPELINE_PATHS = (
    "//sec@id",
    "//p#",
    "//item#",
    "//item#3#",
    '//rec id("on")',
    "//sec count",
    "//list last #",
    "//sec#2 lvl",
    "//sec#1 descendant ?",
)


def mixed_doc(rng: random.Random, target: int, depth: int):
    """A document of about `target` nodes whose sec spine is `depth` deep.

    Text never directly follows a PI or comment sibling, since the
    sentinel encoding cannot recover that boundary after an XML round trip.
    """
    counter = [0]

    def new_sec():
        counter[0] += 1
        attrs = [("id", f"s{counter[0]}")]
        if rng.random() < 0.5:
            attrs.insert(0, ("role", rng.choice(["intro", "body", "end"])))
        kids = [("t", _words(rng))] if rng.random() < 0.3 else []
        return ["sec", attrs, kids]

    root = ["doc", [("z", "1"), ("a", "2")], []]
    secs = [root]
    parent = root
    for _ in range(depth - 1):
        sec = new_sec()
        parent[2].append(sec)
        secs.append(sec)
        parent = sec
    count = 1 + sum(1 + len(s[2]) for s in secs[1:])

    # Block kinds come from a shuffled cycle of evenly spread draws, so every
    # document has the same mix of kinds and its cost depends on its size.
    draws = [(k + 0.5) / 50 for k in range(50)]
    rng.shuffle(draws)
    drawn = [0]

    def block():
        n = drawn[0]
        drawn[0] += 1
        r = draws[n % len(draws)]
        if r < 0.30:
            words = _words(rng)
            if n % 5 < 2:
                return ("e", "p", (), (("t", words), _leaf("em", _words(rng, 1, 1)), ("t", " " + _words(rng)))), 5
            return _leaf("p", words), 2
        if r < 0.50:
            items = tuple(_leaf("item", _words(rng)) for _ in range(3 + n % 6))
            return ("e", "list", (), items), 1 + 2 * len(items)
        if r < 0.62:
            names = rng.sample(["k", "m", "on", "b", "x", "a", "q"], 1 + n % 5)
            vals = [rng.choice(["on", "off", "on", _words(rng, 1, 1)]) for _ in names]
            return ("e", "rec", tuple(zip(names, vals)), ()), 1
        if r < 0.70:
            return ("p", f"tgt{rng.randint(1, 9)} {rng.choice(SAFE_WORDS)}"), 1
        if r < 0.78:
            return ("c", " ".join(rng.choices(SAFE_WORDS, k=3))), 1
        return None, 0

    while count < target:
        node, size = block()
        if node is None:
            sec = new_sec()
            rng.choice(secs)[2].append(sec)
            secs.append(sec)
            count += 1 + len(sec[2])
            continue
        rng.choice(secs)[2].append(node)
        count += size

    return _freeze(root)


def _oracle_children_count(elem) -> int:
    return (1 if elem.text else 0) + sum(1 + (1 if c.tail else 0) for c in elem)


def _oracle_text_children(elem) -> list[str]:
    return ([elem.text] if elem.text else []) + [c.tail for c in elem if c.tail]


def _oracle_index_path(root, target) -> list[int]:
    parents = {c: p for p in root.iter() for c in p}
    path = []
    node = target
    while node is not root:
        parent = parents[node]
        index = 1 if parent.text else 0
        for sibling in parent:
            index += 1
            if sibling is node:
                break
            if sibling.tail:
                index += 1
        path.append(index)
        node = parent
    return path[::-1]


def oracle_queries(xml_text: str) -> list[list]:
    """Answers to PIPELINE_PATHS computed with xml.etree.ElementTree.

    Results are in ltlx's CLI form: strings, ints, and index paths as lists.
    Attribute names come back in canonical (sorted) order because the
    pipeline queries the canonicalized document.
    """
    builder = ET.TreeBuilder(insert_comments=True, insert_pis=True)
    parser = ET.XMLParser(target=builder)
    parser.feed(xml_text)
    root = parser.close()
    secs = list(root.iter("sec"))
    items = list(root.iter("item"))
    answers = []
    answers.append([s.get("id") for s in secs if s.get("id") is not None])
    answers.append([t for p in root.iter("p") for t in _oracle_text_children(p)])
    answers.append([t for it in items for t in _oracle_text_children(it)])
    answers.append(_oracle_text_children(items[2]) if len(items) >= 3 else [])
    answers.append([name for rec in root.iter("rec")
                    for name, value in sorted(rec.attrib.items()) if value == "on"])
    answers.append([_oracle_children_count(s) for s in secs])
    lasts = []
    for lst in root.iter("list"):
        if len(lst) and lst[-1].tail:
            lasts.append(lst[-1].tail)
        elif len(lst) and isinstance(lst[-1].tag, str):
            lasts.extend(_oracle_text_children(lst[-1]))
        elif not len(lst) and lst.text:
            lasts.append(lst.text)
    answers.append(lasts)
    answers.append([_oracle_index_path(root, secs[1])] if len(secs) >= 2 else [])
    answers.append([d.text for d in list(secs[0].iter())[1:] if d.tag is ET.PI] if secs else [])
    return answers


def gen_pipeline(seed: int, docs: int, lo: int, hi: int) -> list[Op]:
    rng = random.Random(seed)
    shapes = list(zip(ladder(lo, hi, docs), ladder(10, 40, docs)))  # larger documents are deeper
    rng.shuffle(shapes)
    ops = []
    for n, depth in shapes:
        doc = mixed_doc(rng, n, depth)
        xml = serialize(doc)
        canonical = serialize(doc, canonical=True)
        expected = {"queries": oracle_queries(xml), "canonical": canonical, "round_trip": canonical}
        ops.append(Op("pipeline", {"xml": xml}, expected, count_nodes(doc), "mixed"))
    return ops


# --- cli --------------------------------------------------------------------

METRICS_PLAIN = "template(element(r{i},_,[text(X)]),[text(X)]).\n"
METRICS_GUARDED = 'template(element(g{i},_,[text(X)]),[text(X)]):-X="v".\n'


def metrics_rules(plain: int, guarded: int) -> tuple[str, dict]:
    """A rule file of `plain` + `guarded` clauses and its census, counted by hand.

    A plain clause has operators template, element, [|], text, [|], text and
    operands r<i>, _, X, X.  A guarded clause adds the operators ':-' and '='
    and the operands X and "v".  Distinct operators: template, element, [|],
    text, plus ':-' and '=' when a guarded clause exists.  Distinct operands:
    one name per clause, plus _ and X, plus "v" when a guarded clause exists.
    """
    source = "".join(METRICS_PLAIN.format(i=i) for i in range(plain))
    source += "".join(METRICS_GUARDED.format(i=i) for i in range(guarded))
    eta1 = 4 + (2 if guarded else 0)
    eta2 = plain + guarded + 2 + (1 if guarded else 0)
    n1 = 6 * plain + 8 * guarded
    n2 = 4 * plain + 6 * guarded
    return source, _halstead(eta1, eta2, n1, n2)


def _ld(x):
    return math.log2(x) if x > 0 else 0.0


def _halstead(eta1, eta2, n1, n2) -> dict:
    n = n1 + n2
    n_t = eta1 * _ld(eta1) + eta2 * _ld(eta2)
    eta = eta1 + eta2
    volume = n * _ld(eta)
    level = (2.0 / eta1) * (eta2 / n2) if eta1 > 0 and n2 > 0 else 0.0
    return {"eta1": eta1, "eta2": eta2, "n1_total": n1, "n2_total": n2, "N": float(n),
            "N_T": n_t, "eta": eta, "V": volume, "L": level, "lambda": volume * level,
            "delta_N": abs(n_t - n)}


def relation_facts(rng: random.Random, rows: int):
    """Fact tables r/2, s/2 and t/2 as rule text, plus the rows as Python values."""
    r = {(f"a{rng.randint(0, rows)}", rng.randint(0, 50)) for _ in range(rows)}
    s = {(rng.randint(0, 50), f"w{rng.randint(0, 20)}") for _ in range(rows // 3)}
    t = set(rng.sample(sorted(r), len(r) // 2)) | {(f"a{rows + i}", i) for i in range(10)}
    lines = [f"r({a},{b}).\n" for a, b in sorted(r)]
    lines += [f's({a},"{b}").\n' for a, b in sorted(s)]
    lines += [f"t({a},{b}).\n" for a, b in sorted(t)]
    rng.shuffle(lines)
    return "".join(lines), r, s, t


def _rows_text(rows, quote_cols=()) -> str:
    def cell(i, v):
        return f'"{v}"' if i in quote_cols else str(v)
    return "".join(line + "\n" for line in sorted(",".join(cell(i, v) for i, v in enumerate(row)) for row in rows))


SAMPLE_TRANSFORMS = (
    # (sample directory, expected stdout, expected exit code); outputs worked out by hand
    ("item_list", "<ul><li>one</li><li>two</li></ul>\n", 0),
    ("shared_child", "w\n", 3),
    ("text_identity", "titlefirst second third\n", 3),
)


def gen_cli(seed: int, workdir: str, small: int = 60) -> list[Op]:
    """One pass of CLI calls covering all seven subcommands.

    Each op's data is {"argv": [...]}, and its expected value is
    {"stdout": ..., "code": ...}.  Input files are written to `workdir`.
    """
    rng = random.Random(seed)
    os.makedirs(workdir, exist_ok=True)

    def write(name, text, encoding="utf-8"):
        path = os.path.join(workdir, name)
        with open(path, "w", encoding=encoding, newline="") as handle:
            handle.write(text)
        return path

    ops = []

    def add(argv, stdout, code=0, nodes=1, group="cli"):
        ops.append(Op("cli", {"argv": argv}, {"stdout": stdout, "code": code}, nodes, group))

    for i in range(2):
        doc = mixed_doc(rng, small * (i + 1), 4)
        add(["canon", write(f"canon{i}.xml", serialize(doc))],
            serialize(doc, canonical=True) + "\n", nodes=count_nodes(doc), group="canon")
    for i in range(2):
        doc = mixed_doc(rng, small * (i + 1), 4)
        add(["encode", write(f"encode{i}.xml", serialize(doc))],
            serialize(encode(doc)) + "\n", nodes=count_nodes(doc), group="encode")
    for i in range(2):
        doc = mixed_doc(rng, small * (i + 1), 4)
        add(["decode", write(f"decode{i}.xml", serialize(encode(doc)))],
            serialize(doc) + "\n", nodes=count_nodes(doc), group="decode")
    for i, path in enumerate(("//item#", "//p#", "//sec count", "//sec@id")):
        doc = mixed_doc(rng, small * 2, 5)
        xml = serialize(doc)
        answers = oracle_queries(xml)[PIPELINE_PATHS.index(path)]
        add(["query", "-p", path, write(f"query{i}.xml", xml)],
            "".join(f"{a}\n" for a in answers), nodes=count_nodes(doc), group="query")
    for name, stdout, code in SAMPLE_TRANSFORMS:
        base = os.path.join("samples", name)
        add(["transform", "-r", os.path.join(base, "rules.ltl"), os.path.join(base, "input.xml")],
            stdout, code, group="transform")
    doc, expected = wide_catalog(rng, 30)
    # The output hedge has many nodes, so the documented exit code is 3.
    add(["transform", "-r", write("wide.ltl", WIDE_RULES), write("catalog.xml", serialize(doc))],
        expected + "\n", 3, nodes=count_nodes(doc), group="transform")
    for i, (plain, guarded) in enumerate(((rng.randint(5, 20), 0), (rng.randint(5, 20), rng.randint(3, 12)))):
        source, census = metrics_rules(plain, guarded)
        add(["metrics", "--machine", write(f"metrics{i}.ltl", source)],
            "".join(f"{k}={v}\n" for k, v in census.items()), group="metrics")
    facts, r, s, t = relation_facts(rng, 100)
    facts_path = write("facts.ltl", facts)
    add(["relalg", "-r", facts_path, "-e", "project(cartesian(r,s),[1,4])"],
        _rows_text({(a, d) for a, _ in r for _, d in s}, quote_cols=(1,)), group="relalg")
    add(["relalg", "-r", facts_path, "-e", "difference(r,t)"], _rows_text(r - t), group="relalg")
    add(["relalg", "-r", facts_path, "-e", "project(union(r,t),[2,1])"],
        _rows_text({(b, a) for a, b in r | t}), group="relalg")
    add(["relalg", "-r", os.path.join("samples", "relations", "facts.ltl"), "-e",
         "project(difference(r,s),[2])"], "a\nc\n", group="relalg")
    rng.shuffle(ops)
    return ops


def latin1_probe(workdir: str) -> Op:
    """A canon call on an input that declares and uses ISO-8859-1."""
    os.makedirs(workdir, exist_ok=True)
    path = os.path.join(workdir, "latin1.xml")
    with open(path, "wb") as handle:
        handle.write('<?xml version="1.0" encoding="ISO-8859-1"?><doc z="é" a="ü">café</doc>'.encode("latin-1"))
    return Op("cli", {"argv": ["canon", path]},
              {"stdout": '<doc a="ü" z="é">café</doc>\n', "code": 0}, 3, "latin1")
