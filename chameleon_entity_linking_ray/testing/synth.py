"""Deterministic synthetic transcript generator (FIXTURES.md §1-§2).

Produces the `transcripts` table (conv_id, turn_idx, role, text, tool, ts —
the BASELINE.json `input_hint` schema) plus a `mentions_truth` table with
planted entity clusters, all from a fixed seed with no wall-clock — the
engine's stand-in for the reference's MS MARCO + TAGME inputs
(/root/reference/utils/entity_extractor.py:22-39 produced its annotations).

Entity mentions are planted as Capitalized alias variants embedded in
lowercase filler so the deterministic extractor can find them; aliases per
entity are noised (case, abbreviation, typo, suffix) to exercise fuzzy
blocking + scoring.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_FIRST = ["Acme", "Globex", "Initech", "Umbrella", "Stark", "Wayne", "Hooli",
          "Vandelay", "Wonka", "Tyrell", "Cyberdyne", "Aperture", "Oscorp",
          "Dunder", "Pied", "Massive", "Soylent", "Virtucon", "Gringotts", "Monarch"]
_SECOND = ["Industries", "Corporation", "Systems", "Labs", "Holdings", "Partners",
           "Dynamics", "Logistics", "Networks", "Analytics", "Robotics", "Capital",
           "Software", "Energy", "Biotech", "Media", "Aerospace", "Foods", "Mining", "Trust"]
_FILLER = ("we should check the status of the order and then follow up with the team "
           "about the invoice because the shipment was delayed and the account needs "
           "review before the meeting tomorrow regarding the contract renewal").split()
_TOOLS = ["search", "browser", "calculator", "db_query", ""]
_ROLES = ["user", "assistant", "tool"]

_BASE_TS_US = 1_700_000_000_000_000  # fixed epoch; no wall-clock anywhere


def _canonical_names(n_entities: int) -> list[str]:
    names = []
    for i in range(n_entities):
        names.append(f"{_FIRST[i % len(_FIRST)]} {_SECOND[(i // len(_FIRST)) % len(_SECOND)]}"
                     + (f" {i // (len(_FIRST) * len(_SECOND))}" if i >= len(_FIRST) * len(_SECOND) else ""))
    return names


def _alias(canonical: str, variant: int, rng: np.random.RandomState) -> str:
    """Deterministic alias variants; variant 0 is always the canonical form."""
    if variant == 0:
        return canonical
    words = canonical.split()
    v = variant % 4
    if v == 1:  # drop suffix word (keeps first word, still capitalized)
        return words[0] if len(words) > 1 else canonical
    if v == 2:  # abbreviate suffix: "Acme Industries" -> "Acme Ind"
        return words[0] + " " + words[1][:3] if len(words) > 1 else canonical
    # v == 3: single-char typo in the first word (position from rng)
    w = list(words[0])
    if len(w) > 3:
        pos = 1 + rng.randint(0, len(w) - 2)
        w[pos] = chr(ord("a") + (ord(w[pos].lower()) - ord("a") + 1) % 26)
    return "".join(w) + (" " + " ".join(words[1:]) if len(words) > 1 else "")


def make_transcripts(
    n_convs: int = 40,
    n_entities: int = 12,
    seed: int = 42,
    hot_entity_mass: float = 0.0,
    mean_turns: int = 8,
) -> tuple[pa.Table, pa.Table]:
    """Return (transcripts, mentions_truth) Arrow tables. Fully deterministic."""
    rng = np.random.RandomState(seed)
    names = _canonical_names(n_entities)

    conv_ids, turn_idxs, roles, texts, tools, tss = [], [], [], [], [], []
    t_mid, t_conv, t_turn, t_start, t_end, t_surface, t_entity, t_canon = (
        [], [], [], [], [], [], [], [])

    for c in range(n_convs):
        conv = f"conv-{c:06d}"
        n_turns = 2 + int(rng.poisson(mean_turns))
        for t in range(n_turns):
            parts, cursor, mention_here = [], 0, []
            n_mentions = rng.randint(0, 4)
            n_filler_groups = n_mentions + 1
            for m in range(n_filler_groups):
                fill = " ".join(
                    _FILLER[rng.randint(0, len(_FILLER))]
                    for _ in range(2 + rng.randint(0, 5)))
                if parts:
                    parts.append(" ")
                    cursor += 1
                parts.append(fill)
                cursor += len(fill)
                if m < n_mentions:
                    if hot_entity_mass > 0 and rng.rand() < hot_entity_mass:
                        eid = 0  # the hot entity (skew fixture)
                    else:
                        eid = rng.randint(0, n_entities)
                    surface = _alias(names[eid], rng.randint(0, 6), rng)
                    parts.append(" ")
                    cursor += 1
                    start = cursor
                    parts.append(surface)
                    cursor += len(surface)
                    mention_here.append((start, cursor, surface, eid, names[eid]))
            text = "".join(parts)
            conv_ids.append(conv)
            turn_idxs.append(t)
            roles.append(_ROLES[t % 3])
            texts.append(text)
            tools.append(_TOOLS[rng.randint(0, len(_TOOLS))] if t % 3 == 2 else "")
            tss.append(_BASE_TS_US + c * 3_600_000_000 + t * 60_000_000)
            for (s, e, surf, eid, canon) in mention_here:
                assert text[s:e] == surf
                t_mid.append(f"{conv}:{t}:{s}")
                t_conv.append(conv)
                t_turn.append(t)
                t_start.append(s)
                t_end.append(e)
                t_surface.append(surf)
                t_entity.append(eid)
                t_canon.append(canon)

    transcripts = pa.table({
        "conv_id": pa.array(conv_ids, pa.string()),
        "turn_idx": pa.array(turn_idxs, pa.int32()),
        "role": pa.array(roles, pa.string()),
        "text": pa.array(texts, pa.string()),
        "tool": pa.array(tools, pa.string()),
        "ts": pa.array(tss, pa.timestamp("us")),
    })
    truth = pa.table({
        "mention_id": pa.array(t_mid, pa.string()),
        "conv_id": pa.array(t_conv, pa.string()),
        "turn_idx": pa.array(t_turn, pa.int32()),
        "span_start": pa.array(t_start, pa.int32()),
        "span_end": pa.array(t_end, pa.int32()),
        "surface": pa.array(t_surface, pa.string()),
        "entity_id": pa.array(t_entity, pa.int64()),
        "canonical": pa.array(t_canon, pa.string()),
    })
    return transcripts, truth


def write_fixture(out_dir: str, **kwargs) -> tuple[str, str]:
    """Write transcripts.parquet + mentions_truth.parquet under out_dir."""
    import os

    import pyarrow.parquet as pq

    os.makedirs(out_dir, exist_ok=True)
    transcripts, truth = make_transcripts(**kwargs)
    tp = os.path.join(out_dir, "transcripts.parquet")
    mp = os.path.join(out_dir, "mentions_truth.parquet")
    pq.write_table(transcripts, tp)
    pq.write_table(truth, mp)
    return tp, mp


def make_chain_edges(n_edges: int, chain_len: int, seed: int = 0) -> pa.Table:
    """Edges ``(u:int64, v:int64)`` of disjoint paths: a seeded permutation
    of node ids cut into chains of ``chain_len`` nodes, each node linked to
    the next. Every chain is one component whose smallest id sits at a
    random position along it, so the number of connected-components rounds
    grows with ``chain_len``."""
    n_chains = max(1, n_edges // (chain_len - 1))
    ids = np.random.RandomState(seed).permutation(n_chains * chain_len) \
        .astype(np.int64).reshape(n_chains, chain_len)
    return pa.table({"u": pa.array(ids[:, :-1].ravel()),
                     "v": pa.array(ids[:, 1:].ravel())})
