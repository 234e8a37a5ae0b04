"""Seeded inputs for the benchmark: XMark-shaped documents, the chop that
loads them as many segments, and the update streams.

Everything here is a pure function of its seed and sizes, and is made
before the server starts, so generation never counts in a timed figure.
The document is written by this module, not by the repo's xmlgen, so the
checks in oracle.py never depend on code under test.
"""

import random
import re

from oracle import Tree

WORDS = ("gold", "silver", "auction", "vintage", "rare", "lot", "mint",
         "classic", "signed", "bundle", "estate", "antique", "modern",
         "boxed", "sealed", "limited")
CITIES = ("Genova", "Singapore", "Shanghai", "Lima", "Oslo", "Accra")
REGIONS = ("africa", "asia", "australia", "europe", "namerica", "samerica")


def _words(rng, lo, hi):
    return " ".join(rng.choice(WORDS) for _ in range(rng.randint(lo, hi)))


def person(rng, pid: str) -> str:
    """One XMark person; about 0.5 KB with the default multiplicities."""
    out = [f'<person id="{pid}"><name>{_words(rng, 2, 3)}</name>'
           f"<emailaddress>mailto:{pid}@example.net</emailaddress>"]
    for _ in range(rng.randint(1, 3)):
        out.append(f"<phone>+{rng.randint(1, 99)} {rng.randint(100000, 999999)}</phone>")
    out.append(f"<address><street>{rng.randint(1, 99)} {_words(rng, 1, 2)}</street>"
               f"<city>{rng.choice(CITIES)}</city><country>x</country>"
               f"<zipcode>{rng.randint(1000, 9999)}</zipcode></address>")
    if rng.random() < 0.9:
        out.append(f'<profile income="{rng.randint(1000, 99999)}">')
        for _ in range(rng.randint(0, 5)):
            out.append(f'<interest category="c{rng.randint(0, 99)}"/>')
        out.append(f"<business>{rng.choice(('Yes', 'No'))}</business>"
                   f"<age>{rng.randint(18, 80)}</age></profile>")
    if rng.random() < 0.8:
        out.append("<watches>")
        for _ in range(rng.randint(0, 8)):
            out.append(f'<watch open_auction="oa{rng.randint(0, 999)}"/>')
        out.append("</watches>")
    out.append("</person>")
    return "".join(out)


def item(rng, iid: str) -> str:
    return (f'<item id="{iid}"><location>{rng.choice(CITIES)}</location>'
            f"<quantity>1</quantity><name>{_words(rng, 1, 3)}</name>"
            f"<description><text>{_words(rng, 4, 12)}</text></description>"
            f'<incategory category="c{rng.randint(0, 99)}"/></item>')


def xmark(seed: int, persons: int) -> bytes:
    """An XMark-shaped <site>: regions/items, categories, people, open and
    closed auctions, scaled by `persons` (4000 persons is about 3.5 MB)."""
    rng = random.Random(seed)
    out = ["<site><regions>"]
    items = persons // 2
    for r, region in enumerate(REGIONS):
        out.append(f"<{region}>")
        for k in range(r, items, len(REGIONS)):
            out.append(item(rng, f"i{k}"))
        out.append(f"</{region}>")
    out.append("</regions><categories>")
    for k in range(max(1, persons // 40)):
        out.append(f'<category id="c{k}"><name>{_words(rng, 1, 2)}</name>'
                   f"<description><text>{_words(rng, 3, 8)}</text></description></category>")
    out.append("</categories><people>")
    for k in range(persons):
        out.append(person(rng, f"p{k}"))
    out.append("</people><open_auctions>")
    for k in range(persons // 4):
        out.append(f'<open_auction id="oa{k}"><initial>{rng.randint(1, 200)}</initial>')
        for _ in range(rng.randint(0, 4)):
            out.append(f'<bidder><personref person="p{rng.randrange(persons)}"/>'
                       f"<increase>{rng.randint(1, 30)}</increase></bidder>")
        out.append(f'<itemref item="i{rng.randrange(max(1, items))}"/></open_auction>')
    out.append("</open_auctions><closed_auctions>")
    for k in range(persons // 8):
        out.append(f'<closed_auction><seller person="p{rng.randrange(persons)}"/>'
                   f"<price>{rng.randint(1, 500)}</price></closed_auction>")
    out.append("</closed_auctions></site>")
    return "".join(out).encode()


# ---------------------------------------------------------------------------
# Chop: a document loaded as many nested segments.

CONTAINERS = ("regions", "categories", "people", "open_auctions",
              "closed_auctions") + REGIONS
ENTITIES = ("person", "item", "open_auction", "closed_auction")


def chop(doc: bytes, segments: int):
    """Splits `doc` into a LOAD of its skeleton plus about `segments`
    INSERTs whose result is byte-identical to `doc`.

    Segments are balanced over the document: every container element, an
    evenly spaced share of the entities, and inside every other chosen
    person its `watches` (so person//watch crosses segments). Returns
    (base, [(gp, text), ...]) in insertion order.
    """
    tree = Tree(doc)
    chosen = [i for t in CONTAINERS for i in tree.by_tag.get(t, ())]
    entities = sorted(i for t in ENTITIES for i in tree.by_tag.get(t, ()))
    budget = max(1, segments - len(chosen))
    # Two thirds of the budget on entities, a third on nested watches.
    step = max(1, len(entities) * 5 // (4 * budget))
    # No randomness here: the chop's shape, which sets the join work,
    # stays the same whatever the seed.
    for n, e in enumerate(entities[::step]):
        chosen.append(e)
        if tree.tag[e] == "person" and n % 2 == 0:
            chosen.extend(c for c in tree.children[e] if tree.tag[c] == "watches")
    chosen.sort()
    # Preorder: cutting every chosen element out of its nearest chosen
    # ancestor (or the base), then inserting in document order at the
    # original offsets, rebuilds the document exactly: everything before
    # an element's offset is already in place when it is inserted.
    cut = {i: [] for i in chosen}
    top = []
    chosen_set = set(chosen)
    for i in chosen:
        p = tree.parent[i]
        while p >= 0 and p not in chosen_set:
            p = tree.parent[p]
        (cut[p] if p >= 0 else top).append(i)

    def without(lo, hi, inner):
        parts, at = [], lo
        for k in inner:
            parts.append(doc[at:tree.start[k]])
            at = tree.end[k]
        parts.append(doc[at:hi])
        return b"".join(parts)

    base = without(0, len(doc), top)
    ops = [(tree.start[i], without(tree.start[i], tree.end[i], cut[i])) for i in chosen]
    return base, ops


# ---------------------------------------------------------------------------
# Update streams.

class Model:
    """The super document as the client expects it after every
    acknowledged update, spliced in place."""

    def __init__(self, doc: bytes):
        self.doc = bytearray(doc)

    def insert(self, gp: int, text: bytes):
        self.doc[gp:gp] = text

    def remove(self, gp: int, length: int):
        del self.doc[gp:gp + length]

    def boundary(self, rng) -> int:
        """A random element boundary strictly inside the root: the
        offset of a '<' that opens or closes an element."""
        lo = self.doc.index(b">") + 1
        hi = self.doc.rindex(b"<")
        while True:
            at = self.doc.find(b"<", rng.randrange(lo, hi))
            if at != -1 and at <= hi:
                return at

    def region(self, fid: bytes):
        """(gp, length) of the element carrying id="fid", nested inserts
        included, or None once it has been removed."""
        at = self.doc.find(b' id="' + fid + b'"')
        if at == -1:
            return None
        start = self.doc.rindex(b"<", 0, at)
        name = re.match(rb"<([\w.\-]+)", self.doc[start:start + 64]).group(1)
        depth = 0
        tag = re.compile(rb"<(/?)" + name + rb"\b[^>]*?(/?)>")
        for m in tag.finditer(self.doc, start):
            if m.group(1):
                depth -= 1
            elif not m.group(2):
                depth += 1
            if depth == 0:
                return start, m.end() - start


REMOVE_SHARE = 0.2
BATCH_SIZE = 8


def update_stream(seed: int, model: Model, ops: int, batch_every=100):
    """A seeded stream of `ops` client operations, applied to `model` as
    generated.

    An insert puts a small person or item fragment at a random element
    boundary, so later fragments nest inside earlier ones, and a remove
    takes out one of the 64 most recently inserted fragments that still
    exist, with whatever was inserted inside it. About REMOVE_SHARE of the
    ops are removes, and every `batch_every`-th op is one BATCH of
    BATCH_SIZE inserts. Returns ('insert', gp, text), ('remove', gp,
    length) and ('batch', [inserts]) tuples.
    """
    rng = random.Random(seed ^ 0xB17E)
    alive = []
    next_id = 0

    def one_insert():
        nonlocal next_id
        fid = f"f{next_id}"
        next_id += 1
        text = (person(rng, fid) if rng.random() < 2 / 3 else item(rng, fid)).encode()
        gp = model.boundary(rng)
        model.insert(gp, text)
        alive.append(fid.encode())
        return ("insert", gp, text)

    out = []
    for n in range(ops):
        if batch_every and n % batch_every == batch_every - 1:
            out.append(("batch", [one_insert() for _ in range(BATCH_SIZE)]))
        elif alive and rng.random() < REMOVE_SHARE:
            reg = None
            while reg is None and alive:
                lo = max(0, len(alive) - 64)
                reg = model.region(alive.pop(rng.randrange(lo, len(alive))))
            if reg is None:
                out.append(one_insert())
                continue
            gp, length = reg
            out.append(("remove", gp, length))
            model.remove(gp, length)
        else:
            out.append(one_insert())
    return out
