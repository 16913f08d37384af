"""Independent reference implementations used to check package output.

Everything here is written directly from the defining formulas with
stdlib / numpy only (and scipy's HiGHS for the selection program's
optimum), deliberately sharing no code with the package so the two
routes can disagree when one of them is wrong.
"""

from __future__ import annotations

import hashlib
import math
import string
from itertools import combinations
from typing import NamedTuple

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_array

_STRIP = string.punctuation + string.whitespace


def tokenize(text: str) -> list[str]:
    out = []
    for raw in text.lower().split():
        tok = raw.strip(_STRIP)
        if tok:
            out.append(tok)
    return out


def ngram_set(text: str, max_n: int = 3) -> set[tuple[str, ...]]:
    tokens = tokenize(text)
    grams = set()
    for n in range(1, max_n + 1):
        for i in range(len(tokens) - n + 1):
            grams.add(tuple(tokens[i : i + n]))
    return grams


def trie_reference(token_lists) -> tuple[dict, set[tuple[str, ...]]]:
    """A dict-of-dicts prefix trie over the token sequences, and the set
    of them: each node maps a child token to the child's node, and a node
    is terminal when its path is in the set."""
    stored = {tuple(tokens) for tokens in token_lists}
    root: dict = {}
    for gram in stored:
        node = root
        for tok in gram:
            node = node.setdefault(tok, {})
    return root, stored


# ---------------------------------------------------------------------------
# lexical scoring


def bm25_scores(
    docs: dict[str, list[str]],
    query: list[str],
    k1: float = 1.2,
    b: float = 0.75,
) -> dict[str, float]:
    """Okapi BM25 over pre-tokenized docs; zero-score docs are dropped."""
    n = len(docs)
    avgdl = sum(len(t) for t in docs.values()) / n

    def idf(term: str) -> float:
        df = sum(1 for t in docs.values() if term in t)
        return math.log(1.0 + (n - df + 0.5) / (df + 0.5))

    scores: dict[str, float] = {}
    for doc_id, tokens in docs.items():
        total = 0.0
        dl = len(tokens)
        for term in query:
            tf = tokens.count(term)
            if tf == 0:
                continue
            total += (
                idf(term)
                * tf
                * (k1 + 1.0)
                / (tf + k1 * (1.0 - b + b * dl / avgdl))
            )
        if total > 0.0:
            scores[doc_id] = total
    return scores


# ---------------------------------------------------------------------------
# embeddings


def bucket(token: str, seed: int, dim: int) -> int:
    digest = hashlib.blake2b(
        token.encode("utf-8"), digest_size=8, key=str(seed).encode("utf-8")
    ).digest()
    return int.from_bytes(digest, "big") % dim


def euclidean_norm(vec) -> float:
    """The Euclidean norm: every square rounded once, their sum exact
    (``math.fsum``), and its square root rounded once."""
    vec = np.asarray(vec, dtype=np.float64)
    vec = vec[vec != 0.0]  # zero squares leave an exact sum as it is
    return math.sqrt(math.fsum((vec * vec).tolist()))


def hash_embed(text: str, seed: int = 0, dim: int = 64) -> np.ndarray:
    vec = np.zeros(dim, dtype=np.float64)
    tokens = tokenize(text)
    if not tokens:
        vec[0] = 1.0
        return vec
    for tok in tokens:
        vec[bucket(tok, seed, dim)] += 1.0
    return vec / euclidean_norm(vec)


def cosine_np(u, v) -> float:
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return float(np.dot(u, v) / (euclidean_norm(u) * euclidean_norm(v)))


# ---------------------------------------------------------------------------
# set similarity and compatibility


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 0.0
    return len(a & b) / len(a | b)


def overlap(a: set, b: set) -> float:
    if not a or not b:
        return 0.0
    return len(a & b) / min(len(a), len(b))


def _sem(text_a: str, text_b: str, embed) -> float:
    value = cosine_np(embed(text_a), embed(text_b))
    return max(0.0, min(1.0, value))


def column_pair(
    header_a: str,
    values_a: list[str],
    header_b: str,
    values_b: list[str],
    w: float,
    embed=hash_embed,
) -> float:
    return w * _sem(header_a, header_b, embed) + (1.0 - w) * jaccard(
        set(values_a), set(values_b)
    )


def unit_pair(text_a: str, text_b: str, w: float, embed=hash_embed) -> float:
    ta, tb = set(tokenize(text_a)), set(tokenize(text_b))
    if not ta or not tb:
        return 0.0
    return w * _sem(text_a, text_b, embed) + (1.0 - w) * overlap(ta, tb)


# Witnesses: the best-scoring pair and its locators, enumerated in a fixed
# order; a later pair replaces the best only when strictly greater, so a
# tie keeps the first. (0.0, None) when no pair scores above 0. ``embed``
# maps a text to its vector; the default is the hash embedding at seed 0,
# dimension 64.


def witness_table_table(table_a, table_b, w: float, embed=hash_embed):
    """Over column pairs, a's columns outer; tables given as (columns,
    rows); locators are the two headers."""
    cols_a, rows_a = table_a
    cols_b, rows_b = table_b
    best, where = 0.0, None
    for ia, ha in enumerate(cols_a):
        va = [row[ia] for row in rows_a]
        for ib, hb in enumerate(cols_b):
            vb = [row[ib] for row in rows_b]
            score = column_pair(ha, va, hb, vb, w, embed)
            if score > best:
                best, where = score, (ha, hb)
    return best, where


def witness_table_passage(table, sentences, w: float, embed=hash_embed):
    """Over (cell, sentence) pairs, cells row by row; locators are the
    (row, column) address and the sentence index."""
    _, rows = table
    best, where = 0.0, None
    for r, row in enumerate(rows):
        for c, cell in enumerate(row):
            for s, sent in enumerate(sentences):
                score = unit_pair(cell, sent, w, embed)
                if score > best:
                    best, where = score, ((r, c), s)
    return best, where


def witness_passage_passage(sentences_a, sentences_b, w: float, embed=hash_embed):
    """Over sentence pairs, a's sentences outer; locators are indices."""
    best, where = 0.0, None
    for ia, sa in enumerate(sentences_a):
        for ib, sb in enumerate(sentences_b):
            score = unit_pair(sa, sb, w, embed)
            if score > best:
                best, where = score, (ia, ib)
    return best, where


# ---------------------------------------------------------------------------
# the compatibility unit index, built loop by loop


def _csr(rows, values=None, dtype=np.float64):
    """(ptr, indices, values) of rows given as lists; values None when
    ``values`` is."""
    ptr = [0]
    for row in rows:
        ptr.append(ptr[-1] + len(row))
    indices = np.array([i for row in rows for i in row], dtype=np.intp)
    if values is not None:
        values = np.array([v for row in values for v in row], dtype=dtype)
    return np.array(ptr, dtype=np.intp), indices, values


def _inverted(rows, n_columns, values=None):
    """(ptr, indices, values) with one row per column, listing the rows
    that hold it, ascending, with their values there."""
    holders = [[] for _ in range(n_columns)]
    for r, row in enumerate(rows):
        for k, column in enumerate(row):
            holders[column].append((r, None if values is None else values[r][k]))
    return _csr(
        [[r for r, _ in h] for h in holders],
        None if values is None else [[v for _, v in h] for h in holders],
    )


def unit_index_reference(objects, embed, dimension: int) -> dict:
    """Every attribute of the compatibility unit index over ``objects``, by
    name, from the definition one unit and one column at a time; sparse
    rows are (ptr, indices, values) triples.

    Units are cells row by row, or sentences, with at least one token.
    Texts are numbered by first appearance: unit texts with tokens, then
    column headers not among them. Tokens of the unit texts, and cell values
    column by column, are numbered by first appearance too. ``embed(text)``
    is the text's dense vector; a stored vector keeps its non-zero
    coordinates, and its norm is ``euclidean_norm`` of the dense one.

    The index keys the unit texts, then the column slots object by object,
    in one space: a key's vector is its text's, a slot's coordinates
    shifted by ``dimension``, and its terms are a unit text's token ids or
    a slot's value ids shifted by the number of tokens.
    """
    texts: dict[str, int] = {}
    token_lists = []
    unit_rows, place_rows = [], []
    for obj in objects:
        ids, places = [], []
        cells = [cell for row in obj.rows for cell in row]
        for place, text in enumerate(list(obj.sentences) or cells):
            tokens = tokenize(text)
            if not tokens:
                continue
            if text not in texts:
                texts[text] = len(texts)
                token_lists.append(tokens)
            ids.append(texts[text])
            places.append(place)
        unit_rows.append(ids)
        place_rows.append(places)
    n_units = len(texts)
    slot_texts, value_rows, slot_owner = [], [], []
    values: dict[str, int] = {}
    for j, obj in enumerate(objects):
        for c, header in enumerate(obj.columns):
            texts.setdefault(header, len(texts))
            slot_texts.append(texts[header])
            for row in obj.rows:
                values.setdefault(row[c], len(values))
            value_rows.append(sorted({values[row[c]] for row in obj.rows}))
            slot_owner.append(j)
    vocab: dict[str, int] = {}
    for tokens in token_lists:
        for tok in tokens:
            vocab.setdefault(tok, len(vocab))
    token_rows = [sorted({vocab[tok] for tok in tokens}) for tokens in token_lists]

    supports, weights, norms = [], [], []
    for text in texts:
        vec = np.asarray(embed(text), dtype=np.float64)
        support = np.flatnonzero(vec)
        supports.append(support.tolist())
        weights.append(vec[support].tolist())
        norms.append(euclidean_norm(vec))
    key_supports, key_weights, key_norms = [], [], []
    for key in range(n_units + len(slot_texts)):
        text = key if key < n_units else slot_texts[key - n_units]
        shift = 0 if key < n_units else dimension
        key_supports.append([d + shift for d in supports[text]])
        key_weights.append(weights[text])
        key_norms.append(norms[text])
    term_rows = token_rows + [[len(vocab) + v for v in row] for row in value_rows]
    # each object's distinct unit texts with the first place of each, then
    # each object's slot keys with their column indices
    unit_sets, first_places = [], []
    for ids, places in zip(unit_rows, place_rows):
        first = {}
        for text, place in zip(ids, places):
            first.setdefault(text, place)
        unit_sets.append(sorted(first))
        first_places.append([first[text] for text in sorted(first)])
    slot_rows, column_rows = [], []
    key = n_units
    for obj in objects:
        slot_rows.append(list(range(key, key + len(obj.columns))))
        column_rows.append(list(range(len(obj.columns))))
        key += len(obj.columns)
    return {
        "n_units": n_units,
        "vectors": _csr(key_supports, key_weights),
        "norms": np.array(key_norms, dtype=np.float64),
        "buckets": _inverted(key_supports, 2 * dimension, key_weights),
        "terms": _csr(term_rows),
        "term_keys": _inverted(term_rows, len(vocab) + len(values)),
        "n_terms": np.array([len(r) for r in term_rows], dtype=np.intp),
        "held": _csr(unit_sets + slot_rows, first_places + column_rows, dtype=np.intp),
        "holders": _inverted(unit_sets, n_units),
        "slot_owner": np.array(slot_owner, dtype=np.intp),
        "is_table": np.array([obj.kind.value == "table" for obj in objects]),
    }


# ---------------------------------------------------------------------------
# base-set fusion


def fuse_base(
    query_hits: list[list[tuple[str, float]]],
    sims: dict[str, float],
    chunks_of: dict[str, list[str]],
    alpha: float,
    base_size: int,
) -> list[tuple[str, float, float, float]]:
    """Fused (object id, fused, bm25, embed) rows, best first, ties by id.

    Each chunk keeps its best score over the queries; scores are min-max
    normalized over every hit chunk, including chunks no object owns, and
    an object takes its best chunk. Embedding similarity is clamped to
    [0, 1].
    """
    best: dict[str, float] = {}
    for hits in query_hits:
        for cid, score in hits:
            if cid not in best or score > best[cid]:
                best[cid] = score
    norm: dict[str, float] = {}
    if best:
        lo, hi = min(best.values()), max(best.values())
        for cid, score in best.items():
            norm[cid] = 1.0 if hi == lo else (score - lo) / (hi - lo)
    rows = []
    for oid, sim in sims.items():
        bm = 0.0
        for cid in chunks_of[oid]:
            if cid in norm and norm[cid] > bm:
                bm = norm[cid]
        embed = 0.0 if sim <= 0.0 else (1.0 if sim >= 1.0 else sim)
        rows.append((oid, alpha * bm + (1.0 - alpha) * embed, bm, embed))
    rows.sort(key=lambda row: (-row[1], row[0]))
    return rows[:base_size]


# ---------------------------------------------------------------------------
# constrained n-gram decoding


def _left_sum(values: list[float]) -> float:
    total = 0.0
    for value in values:
        total += value
    return total


def neumaier_sum(values, start=0):
    """``sum`` as CPython 3.12 and later compute it: from the first float
    on, floats add with Neumaier's compensation, which joins the total at
    the end (when finite) or before any other type is added; ints add as
    they are. Installed as ``builtins.sum`` on an older CPython, it shows
    which outputs depend on the version's ``sum``."""
    total, compensation = start, 0.0
    for value in values:
        if type(total) is float and type(value) is float:
            step = total + value
            if abs(total) >= abs(value):
                compensation += (total - step) + value
            else:
                compensation += (value - step) + total
            total = step
        elif type(total) is float and type(value) in (int, bool):
            total += value
        else:
            if compensation and math.isfinite(compensation):
                total += compensation
            total, compensation = total + value, 0.0
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def beam_decode_reference(
    scorer, ngrams, seed_text: str, beam_width: int, max_ngrams: int
) -> list[tuple]:
    """The plain beam search: expand every hypothesis, sort every candidate.

    ``ngrams`` holds the indexed token tuples. A segment opens with "(",
    lists N-grams separated by "," and ends with ")"; only a complete
    N-gram may be followed by a separator or the close. Hypotheses rank
    by mean content logit, then total content logit, then tokens, with
    totals re-summed left to right for every comparison. Returns one
    (tokens, logits, ngrams, ngram scores, mean) tuple per beam, best
    first; an empty list when every beam dies.
    """
    open_tok, close_tok, sep_tok = "(", ")", ","
    continuations: dict[tuple[str, ...], set[str]] = {}
    for gram in ngrams:
        for i in range(len(gram)):
            continuations.setdefault(tuple(gram[:i]), set()).add(gram[i])
    complete = {tuple(gram) for gram in ngrams}

    def key(hyp: dict) -> tuple:
        total = _left_sum(hyp["content"])
        mean = total / len(hyp["content"]) if hyp["content"] else 0.0
        return (-mean, -total, tuple(hyp["tokens"]))

    context = scorer.tokenize(seed_text)
    first = scorer.score(context, [open_tok])[0]
    live = [
        {
            "tokens": [open_tok],
            "logits": [first],
            "prefix": [],
            "prefix_logits": [],
            "grams": [],
            "gram_scores": [],
            "content": [],
            "closed": False,
        }
    ]
    done: list[dict] = []
    for _ in range(max_ngrams * 4 + 2):
        if not live:
            break
        expansions = []
        for hyp in live:
            prefix = tuple(hyp["prefix"])
            options = set(continuations.get(prefix, ()))
            if prefix and prefix in complete:
                options.add(close_tok)
                if len(hyp["grams"]) + 1 < max_ngrams:
                    options.add(sep_tok)
            ordered = sorted(options)
            if not ordered:
                continue
            logits = scorer.score(context + hyp["tokens"], ordered)
            for tok, logit in zip(ordered, logits):
                new = {k: list(v) if isinstance(v, list) else v for k, v in hyp.items()}
                new["tokens"].append(tok)
                new["logits"].append(logit)
                if tok in (sep_tok, close_tok):
                    new["grams"].append(tuple(new["prefix"]))
                    gram_logits = new["prefix_logits"]
                    new["gram_scores"].append(sum(gram_logits) / len(gram_logits))
                    new["prefix"], new["prefix_logits"] = [], []
                    new["closed"] = tok == close_tok
                else:
                    new["prefix"].append(tok)
                    new["prefix_logits"].append(logit)
                    new["content"].append(logit)
                expansions.append(new)
        done = sorted(done + [h for h in expansions if h["closed"]], key=key)
        done = done[:beam_width]
        live = sorted((h for h in expansions if not h["closed"]), key=key)
        live = live[:beam_width]
    return [
        (
            tuple(h["tokens"]),
            tuple(h["logits"]),
            tuple(h["grams"]),
            tuple(h["gram_scores"]),
            -key(h)[0],
        )
        for h in done
    ]


# ---------------------------------------------------------------------------
# verification


class CountingScorerReference:
    """The mock scorer without rules, from its formula: a candidate scores
    its bias, plus weight times its count in the context, plus, when
    seeded, blake2b noise over the seed, the last four context tokens and
    the candidate. The context is counted afresh on every call."""

    def __init__(self, weight: float, bias: dict, seed=None) -> None:
        self.weight, self.bias, self.seed = weight, dict(bias), seed

    def tokenize(self, text: str) -> list[str]:
        return tokenize(text)

    def score(self, context, candidates) -> list[float]:
        context = list(context)
        out = []
        for tok in candidates:
            value = self.bias.get(tok, 0.0)
            if self.weight:
                value += self.weight * context.count(tok)
            if self.seed is not None:
                tail = "\x1f".join(context[-4:])
                payload = f"{self.seed}\x1e{tail}\x1e{tok}".encode("utf-8")
                digest = hashlib.blake2b(payload, digest_size=8).digest()
                value += int.from_bytes(digest, "big") / 2.0**64
            out.append(value)
        return out


def choice_decode_reference(scorer, choices, context, stop: str = "<>"):
    """Greedy decoding of one choice's token path, read off the paths.

    A choice's path is its tokens (its stripped lowercase text when it has
    none); the first choice in sorted order keeps a shared path. At each
    step the candidates are the sorted next tokens of the paths the
    emitted tokens start, plus the stop token once they spell a whole
    path; the best logit wins, ties to the smaller token.
    """
    paths: dict[tuple, str] = {}
    for choice in sorted(choices):
        path = tuple(scorer.tokenize(choice)) or (choice.strip().lower() or choice,)
        paths.setdefault(path, choice)
    emitted: tuple = ()
    logits: list[float] = []
    while True:
        n = len(emitted)
        nexts = sorted({p[n] for p in paths if len(p) > n and p[:n] == emitted})
        whole = emitted in paths
        if whole and not nexts:
            return paths[emitted], logits
        candidates = nexts + ([stop] if whole else [])
        scored = scorer.score(list(context) + list(emitted), candidates)
        best = min(range(len(candidates)), key=lambda i: (-scored[i], candidates[i]))
        if candidates[best] == stop and stop not in nexts:
            return paths[emitted], logits
        emitted += (candidates[best],)
        logits.append(scored[best])


def verify_select_reference(
    scorer, template: str, fields: dict, object_ids, stop: str = "<>"
) -> tuple[tuple[str, ...], dict[str, float]]:
    """Pick draft members until the stop token, formatting and tokenizing
    the whole prompt, with ``{selected}`` set to the picks so far joined
    by spaces, before every pick. Returns the picks and their weights,
    each the mean logit of its decoded tokens."""
    remaining = list(object_ids)
    selected: list[str] = []
    weights: dict[str, float] = {}
    while remaining:
        choices = sorted(remaining) + ([stop] if selected else [])
        prompt = template.format(selected=" ".join(selected), **fields)
        chosen, logits = choice_decode_reference(
            scorer, choices, scorer.tokenize(prompt), stop
        )
        if chosen == stop:
            break
        selected.append(chosen)
        weights[chosen] = sum(logits) / len(logits)
        remaining.remove(chosen)
    return tuple(selected), weights


# ---------------------------------------------------------------------------
# selection program


def mip_optimum(
    relevance: list[float],
    compat: dict[tuple[int, int], float],
    k: int,
) -> tuple[float, tuple[int, ...]]:
    """Exhaustive optimum over selections AND connection subsets.

    Connection subsets are enumerated outright (every subset within the
    cap), so this shares no completion logic with the solvers. Ties
    resolve to the lexicographically smallest selection.
    """
    m = len(relevance)
    cap = 2 * (k - 1)
    best_obj = float("-inf")
    best_sel: tuple[int, ...] = ()
    for selected in combinations(range(m), k):
        inside = set(selected)
        pairs = [
            (key, c)
            for key, c in compat.items()
            if key[0] in inside and key[1] in inside and c > 0.0
        ]
        best_conn = 0.0
        for take in range(0, min(cap, len(pairs)) + 1):
            for subset in combinations(pairs, take):
                total = sum(c for _, c in subset)
                if total > best_conn:
                    best_conn = total
        obj = sum(relevance[i] for i in selected) + best_conn
        if obj > best_obj or (obj == best_obj and selected < best_sel):
            best_obj = obj
            best_sel = selected
    return best_obj, best_sel


def milp_optimum(instance) -> float:
    """The optimum objective of the selection program, from HiGHS
    (``scipy.optimize.milp``, solved to a zero relative gap).

    The program is written out from its definition: a binary ``x_i`` per
    object and ``y_ij`` per positive pair, ``y_ij <= x_i``, ``y_ij <= x_j``,
    ``sum x = k`` and ``sum y <= 2(k-1)``, maximizing ``sum r_i x_i + sum
    c_ij y_ij``. The objective is summed exactly (``math.fsum``) over the
    rounded solution, which must satisfy every constraint; it shares no
    code with the solvers.
    """
    m, k = len(instance.relevance), instance.k
    pairs = [(pair, c) for pair, c in sorted(instance.compat.items()) if c > 0.0]
    n = m + len(pairs)
    rows, cols, data = [], [], []
    for p, ((i, j), _) in enumerate(pairs):
        for r, end in ((2 * p, i), (2 * p + 1, j)):  # y_ij - x_end <= 0
            rows += [r, r]
            cols += [m + p, end]
            data += [1.0, -1.0]
    last = 2 * len(pairs)
    rows += [last] * m + [last + 1] * len(pairs)
    cols += list(range(n))
    data += [1.0] * n
    lower = [-np.inf] * last + [k, -np.inf]
    upper = [0.0] * last + [k, 2 * (k - 1)]
    matrix = coo_array((data, (rows, cols)), shape=(last + 2, n)).tocsr()
    weights = list(instance.relevance) + [c for _, c in pairs]
    result = milp(
        c=-np.array(weights),
        integrality=np.ones(n),
        bounds=Bounds(0.0, 1.0),
        constraints=LinearConstraint(matrix, lower, upper),
        options={"mip_rel_gap": 0.0},
    )
    if not result.success:
        raise ValueError(f"HiGHS found no optimum: {result.message}")
    x = np.round(result.x).astype(int).tolist()
    chosen, kept = x[:m], x[m:]
    feasible = sum(chosen) == k and sum(kept) <= 2 * (k - 1)
    for ((i, j), _), y in zip(pairs, kept):
        feasible = feasible and y <= chosen[i] and y <= chosen[j]
    if not feasible:
        raise ValueError("HiGHS returned an infeasible selection")
    return math.fsum(w for w, v in zip(weights, x) if v)


class ReferenceDraft(NamedTuple):
    object_ids: tuple[str, ...]
    connections: tuple[tuple[str, str], ...]
    objective: float


def brute_force_mip(instance, limit: int = 15) -> ReferenceDraft:
    """Exhaustive optimum of the selection program over every k-subset.

    A selection's best connections are its strictly positive pairs,
    strongest first, ties by index pair, cut to 2(k-1). Its objective is
    summed left to right: relevance in index order, then the kept
    strengths in index-pair order. Ties in the objective go to the
    smallest sorted id tuple. Raises ValueError past ``limit`` objects or
    when k exceeds them.
    """
    ids, rel, compat, k = (
        instance.object_ids, instance.relevance, instance.compat, instance.k
    )
    if len(ids) > limit:
        raise ValueError(f"{len(ids)} objects exceed the limit {limit}")
    if k > len(ids):
        raise ValueError(f"k={k} exceeds {len(ids)} objects")
    best = None
    for chosen in combinations(range(len(ids)), k):
        ranked = sorted(
            (-compat[pair], pair)
            for pair in combinations(chosen, 2)
            if compat.get(pair, 0.0) > 0.0
        )
        kept = sorted(pair for _, pair in ranked[: 2 * (k - 1)])
        total = _left_sum([rel[i] for i in chosen] + [compat[p] for p in kept])
        names = tuple(sorted(ids[i] for i in chosen))
        if best is None or total > best[0] or (total == best[0] and names < best[1]):
            best = (total, names, kept)
    total, names, kept = best
    connections = sorted(tuple(sorted((ids[i], ids[j]))) for i, j in kept)
    return ReferenceDraft(names, tuple(connections), total)


# ---------------------------------------------------------------------------
# metrics


def prf(retrieved: list[str], gold: list[str]) -> tuple[float, float, float, bool]:
    r_set, g_set = set(retrieved), set(gold)
    hits = len(r_set & g_set)
    precision = hits / len(r_set) if r_set else 0.0
    recall = hits / len(g_set)
    f1 = (
        0.0
        if precision + recall == 0.0
        else 2.0 * precision * recall / (precision + recall)
    )
    return precision, recall, f1, g_set <= r_set
