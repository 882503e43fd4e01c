"""Seeded MultiWOZ-2.2-shaped synthetic inputs, and the plans behind them.

Everything here is computed without importing slotchain, so the expected
outputs the checks compare against are independent of the program.

The corpus shape follows the published MultiWOZ statistics (sources in
bench/README.md): the 30 tracked slots of its five domains, two or three
domains per dialogue visited one after another, a mean of 7.7 turns per
multi-domain dialogue (3 to 20), and a mean of about 13 words per
utterance. Dialogue lengths and domain counts come from fixed multisets
that the seed only shuffles, so every seed yields near-identical amounts
of work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

NONE = "none"

DAYS = ("monday", "tuesday", "wednesday", "thursday", "friday", "saturday", "sunday")
COUNTS = ("1", "2", "3", "4", "5", "6", "7", "8")
PRICE = ("cheap", "moderate", "expensive")
AREA = ("centre", "north", "south", "east", "west")
YESNO = ("yes", "no", "free")
HOTEL_NAMES = ("acorn guest house", "alexander bed and breakfast", "allenbell",
               "ashley hotel", "autumn house", "a and b guest house", "bridge guest house",
               "cambridge belfry", "el shaddai", "finches bed and breakfast",
               "gonville hotel", "hamilton lodge", "huntingdon marriott hotel",
               "lensfield hotel", "limehouse", "lovell lodge", "university arms hotel")
RESTAURANT_NAMES = ("pizza hut city centre", "the golden curry", "curry garden",
                    "golden wok", "the nirala", "la margherita", "meghna", "nandos",
                    "royal spice", "saigon city", "the copper kettle", "yu garden",
                    "zizzi cambridge", "the gandhi", "midsummer house restaurant")
FOODS = ("british", "chinese", "indian", "italian", "european", "modern european",
         "thai", "gastropub", "asian oriental", "international", "spanish", "turkish")
ATTRACTION_NAMES = ("all saints church", "byard art", "cambridge punter",
                    "castle galleries", "christ's college", "kettle's yard",
                    "the fitzwilliam museum", "queens' college", "scott polar museum",
                    "whipple museum of the history of science", "club salsa")
ATTRACTION_TYPES = ("museum", "college", "architecture", "boat", "cinema",
                    "entertainment", "nightclub", "park", "swimming pool", "theatre")
PLACES = ("cambridge", "london kings cross", "stansted airport", "ely", "norwich",
          "peterborough", "birmingham new street", "leicester", "bishops stortford",
          "stevenage", "broxbourne", "london liverpool street")
TIMES = tuple(f"{h:02d}:{m:02d}" for h in range(5, 23) for m in (0, 15, 30, 45))

# (slot name, description, categorical values or None, free-value pool)
DOMAIN_SLOTS = {
    "hotel": (
        ("pricerange", "price budget of the hotel", PRICE, None),
        ("type", "what is the type of the hotel", ("hotel", "guesthouse"), None),
        ("parking", "whether the hotel has parking", YESNO, None),
        ("bookday", "day of the hotel booking", DAYS, None),
        ("bookpeople", "number of people for the hotel booking", COUNTS, None),
        ("bookstay", "length of stay at the hotel", COUNTS, None),
        ("stars", "star rating of the hotel", ("0", "1", "2", "3", "4", "5"), None),
        ("internet", "whether the hotel has internet", YESNO, None),
        ("name", "name of the hotel", None, HOTEL_NAMES),
        ("area", "area or place of the hotel", AREA, None),
    ),
    "restaurant": (
        ("food", "the cuisine of the restaurant you are looking for", None, FOODS),
        ("pricerange", "price budget for the restaurant", PRICE, None),
        ("area", "area or place of the restaurant", AREA, None),
        ("name", "name of the restaurant", None, RESTAURANT_NAMES),
        ("bookday", "day of the restaurant booking", DAYS, None),
        ("bookpeople", "how many people for the restaurant reservation", COUNTS, None),
        ("booktime", "time of the restaurant booking", None, TIMES),
    ),
    "attraction": (
        ("type", "type of the attraction", None, ATTRACTION_TYPES),
        ("area", "area to search for attractions", AREA, None),
        ("name", "name of the attraction", None, ATTRACTION_NAMES),
    ),
    "train": (
        ("destination", "destination of the train", None, PLACES),
        ("day", "day of the train", DAYS, None),
        ("departure", "departure location of the train", None, PLACES),
        ("arriveby", "arrival time of the train", None, TIMES),
        ("bookpeople", "how many train tickets you need", COUNTS, None),
        ("leaveat", "leaving time for the train", None, TIMES),
    ),
    "taxi": (
        ("leaveat", "leaving time of taxi", None, TIMES),
        ("destination", "destination of taxi", None, PLACES + HOTEL_NAMES[:5]),
        ("departure", "departure location of taxi", None, PLACES + RESTAURANT_NAMES[:5]),
        ("arriveby", "arrival time of taxi", None, TIMES),
    ),
}
DOMAINS = tuple(DOMAIN_SLOTS)
WORDS = ("i", "need", "a", "place", "to", "stay", "in", "the", "would", "like", "book",
         "it", "for", "please", "thanks", "sure", "what", "about", "there", "are", "is",
         "that", "with", "and", "can", "you", "help", "me", "find", "looking", "also",
         "any", "will", "be", "on", "from", "at", "do", "have", "great", "okay", "yes",
         "no", "reference", "number", "booked", "available", "recommend", "how", "many",
         "people", "would", "you", "prefer", "price", "range", "area", "town", "leave")
# Turns per dialogue -> dialogues in one pass of the multiset: mean 7.71,
# fitted to the 15.39 utterances (7.7 turns) of an average multi-domain
# MultiWOZ dialogue; the shape of the tail is not from a published figure.
LENGTH_COUNTS = {3: 3, 4: 8, 5: 10, 6: 9, 7: 9, 8: 8, 9: 6, 10: 4, 11: 3, 12: 2, 13: 2,
                 14: 1, 15: 1, 16: 1, 18: 1, 20: 1}
LENGTHS = tuple(n for n, count in LENGTH_COUNTS.items() for _ in range(count))
DOMAIN_COUNTS = (2, 2, 3)


@dataclass(frozen=True)
class Slot:
    slot_id: str
    domain: str
    name: str
    description: str
    possible_values: tuple[str, ...] | None
    pool: tuple[str, ...]


SLOTS = tuple(
    Slot(f"{domain}-{name}", domain, name, description, cat, cat or free)
    for domain, entries in DOMAIN_SLOTS.items()
    for name, description, cat, free in entries
)
SLOT_BY_ID = {slot.slot_id: slot for slot in SLOTS}


def schema_records() -> list[dict]:
    records = []
    for slot in SLOTS:
        record = {"slot_id": slot.slot_id, "domain": slot.domain, "name": slot.name,
                  "description": slot.description}
        if slot.possible_values:
            record["possible_values"] = list(slot.possible_values)
        records.append(record)
    return records


def _words(rng: random.Random, n: int) -> list[str]:
    return rng.choices(WORDS, k=n)


def _utterance(rng: random.Random, mean: int, mentions: list[str]) -> str:
    words = _words(rng, max(3, mean + rng.randint(-4, 4)))
    for value in mentions:
        words.insert(rng.randint(0, len(words)), value)
    return " ".join(words)


def _other_value(rng: random.Random, slot: Slot, current: str | None) -> str:
    while True:
        value = "dontcare" if rng.random() < 0.04 else rng.choice(slot.pool)
        if value != current:
            return value


def make_dialogue(rng: random.Random, dialogue_id: str, split: str, n_turns: int,
                  n_domains: int) -> dict:
    """One canonical dialogue record. Gold values are written in one
    canonical spelling, so a slot's value changes exactly when its string
    changes; a dropped slot disappears from the state."""
    domains = rng.sample(DOMAINS, n_domains)
    # consecutive turn ranges, one per domain, in visiting order
    cuts = sorted(rng.sample(range(1, n_turns), n_domains - 1)) if n_turns > n_domains else \
        list(range(1, n_domains))
    bounds = [0] + cuts + [n_turns]
    events: dict[int, list[tuple[str, str | None]]] = {}
    for domain, lo, hi in zip(domains, bounds, bounds[1:]):
        slots = [s for s in SLOTS if s.domain == domain]
        chosen = rng.sample(slots, rng.randint(max(1, len(slots) // 3), max(1, 2 * len(slots) // 3)))
        for slot in chosen:
            turn = rng.randint(lo, max(lo, hi - 1))
            value = _other_value(rng, slot, None)
            events.setdefault(turn, []).append((slot.slot_id, value))
            # later turns where the user changes their mind or drops the slot
            while turn + 1 < n_turns and rng.random() < 0.3:
                turn = rng.randint(turn + 1, n_turns - 1)
                value = None if value is not None and rng.random() < 0.2 else \
                    _other_value(rng, slot, value)
                events.setdefault(turn, []).append((slot.slot_id, value))
    mean_len = rng.randint(6, 16)
    state: dict[str, str] = {}
    turns = []
    for position in range(n_turns):
        mentions = []
        for slot_id, value in events.get(position, ()):
            if value is None:
                state.pop(slot_id, None)
            else:
                state[slot_id] = value
                mentions.append(value)
        system = "" if position == 0 else _utterance(rng, mean_len + 3, [])
        turns.append({
            "index": position + 1,
            "system": system,
            "user": _utterance(rng, mean_len, mentions),
            "state": dict(sorted(state.items())),
        })
    return {"dialogue_id": dialogue_id, "split": split, "turns": turns}


def _cycled(rng: random.Random, values: tuple[int, ...], n: int) -> list[int]:
    """``n`` values going through ``values`` again and again, each pass in
    a seeded order, so that every prefix holds them in near-equal shares."""
    out: list[int] = []
    while len(out) < n:
        block = list(values)
        rng.shuffle(block)
        out += block
    return out[:n]


def make_corpus(seed: int, n_dialogues: int, splits: tuple[tuple[str, float], ...]) -> list[dict]:
    """About ``n_dialogues`` dialogues, split by the given shares, one split
    after another. Dialogue lengths and domain counts go through fixed
    multisets in seeded order, so every split, and every prefix of the
    corpus, has nearly the same make-up whatever the seed."""
    rng = random.Random(seed)
    plan = []
    for split, share in splits:
        n = round(share * n_dialogues)
        plan += zip([split] * n, _cycled(rng, LENGTHS, n), _cycled(rng, DOMAIN_COUNTS, n))
    return [make_dialogue(rng, f"mwz{seed % 1000:03d}-{i:05d}", split, n_turns, n_domains)
            for i, (split, n_turns, n_domains) in enumerate(plan)]


def until_examples(corpus: list[dict], n: int) -> list[dict]:
    """The shortest prefix of ``corpus`` holding at least ``n`` active
    (dialogue, turn, slot) examples."""
    examples = 0
    for i, dialogue in enumerate(corpus):
        examples += sum(1 for _ in _dialogue_examples(dialogue))
        if examples >= n:
            return corpus[: i + 1]
    return corpus


def coarse_slice(corpus: list[dict], n_distinct: int, per_distinct: float) -> list[dict]:
    """Dialogues taken in order until they hold ``n_distinct`` distinct
    coarse explanations, skipping any dialogue that would move the ratio
    of coarse items to distinct texts further than ``per_distinct`` items
    from ``per_distinct``. The slice keeps the natural duplication on
    average but not its spread between seeds."""
    items, texts, taken = 0, set(), []
    for dialogue in corpus:
        coarse = [text for *_, text in _dialogue_examples(dialogue) if text]
        new_items, new_texts = items + len(coarse), texts | set(coarse)
        drift = abs(items - per_distinct * len(texts))
        if abs(new_items - per_distinct * len(new_texts)) <= max(drift, per_distinct):
            taken.append(dialogue)
            items, texts = new_items, new_texts
        if len(texts) >= n_distinct:
            break
    return taken


# ---------------------------------------------------------------------------
# the benchmark's own recount: chains, examples, histogram, buckets


def speaker_pair(turn: dict) -> str:
    parts = ["system:"] + ([turn["system"]] if turn["system"] else []) + ["user:", turn["user"]]
    return " ".join(parts)


def chains_of(dialogue: dict) -> dict[str, tuple[list[int], list[int]]]:
    """slot_id -> (change turns, chain length at each turn position).
    The chain at a turn is the prefix of the change turns of that length.
    Only slots that are ever set appear."""
    slot_ids = {s for turn in dialogue["turns"] for s in turn["state"]}
    chains: dict[str, tuple[list[int], list[int]]] = {s: ([], []) for s in slot_ids}
    before: dict = {}
    for turn in dialogue["turns"]:
        for slot_id, (changes, lengths) in chains.items():
            if turn["state"].get(slot_id, NONE) != before.get(slot_id, NONE):
                changes.append(turn["index"])
            lengths.append(len(changes))
        before = turn["state"]
    return chains


def _dialogue_examples(dialogue: dict):
    """(turn position, slot_id, step count, target value, coarse
    explanation or "") for every active slot of every turn, slots sorted."""
    chains = chains_of(dialogue)
    turns = dialogue["turns"]
    for position, turn in enumerate(turns):
        for slot_id in sorted(chains):
            changes, lengths = chains[slot_id]
            steps = lengths[position]
            if steps == 0:
                continue
            target = turn["state"].get(slot_id, NONE)
            coarse = "" if target == NONE else " ".join(
                speaker_pair(turns[t - 1]) for t in changes[:steps])
            yield position, slot_id, steps, target, coarse


def expected_examples(corpus: list[dict]):
    """Yields, in the order the program writes them (dialogue id, turn,
    slot id), one dict per active (dialogue, turn, slot)."""
    for dialogue in sorted(corpus, key=lambda d: d["dialogue_id"]):
        for position, slot_id, steps, target, coarse in _dialogue_examples(dialogue):
            yield {
                "example_id": f"{dialogue['dialogue_id']}:{position + 1}:{slot_id}",
                "target_value": target,
                "step_count": steps,
                "dialogue_turns": len(dialogue["turns"]),
                "explanation": coarse,
            }


def example_records(corpus: list[dict]):
    """Examples JSONL records, written by the benchmark itself: a prompt
    with the dialogue history, the recounted target and the coarse
    explanation."""
    for dialogue in sorted(corpus, key=lambda d: d["dialogue_id"]):
        turns = dialogue["turns"]
        lines = []
        for turn in turns:
            lines.append(f"system: {turn['system']}" if turn["system"] else "system:")
            lines.append(f"user: {turn['user']}")
        avg_len = avg_utterance_len(dialogue)
        for position, slot_id, steps, target, coarse in _dialogue_examples(dialogue):
            slot = SLOT_BY_ID[slot_id]
            history = "\n".join(lines[: 2 * position + 2])
            yield {
                "example_id": f"{dialogue['dialogue_id']}:{position + 1}:{slot_id}",
                "input_text": f"Dialogue: {history} Domain: {slot.domain} "
                              f"Question: What's {slot.description}?",
                "target_value": target,
                "explanation": coarse,
                "explanation_kind": "coarse" if coarse else "none",
                "meta": {"dialogue_id": dialogue["dialogue_id"], "query_turn": position + 1,
                         "slot_id": slot_id, "step_count": steps,
                         "dialogue_turns": len(turns), "avg_utterance_len": avg_len},
            }


def step_histogram(corpus: list[dict]) -> dict[str, int]:
    counts: dict[int, int] = {}
    for dialogue in corpus:
        for _, per_turn in chains_of(dialogue).values():
            for steps in per_turn:
                if steps:
                    counts[steps] = counts.get(steps, 0) + 1
    return {str(k): counts[k] for k in sorted(counts)}


def max_step_by_turn(dialogue: dict) -> list[int]:
    chains = chains_of(dialogue)
    return [max((per_turn[p] for _, per_turn in chains.values()), default=0)
            for p in range(len(dialogue["turns"]))]


def avg_utterance_len(dialogue: dict) -> float:
    total = sum(len(t["system"].split()) + len(t["user"].split()) for t in dialogue["turns"])
    return total / (2 * len(dialogue["turns"]))


# The MultiWOZ bucket specs the score workload asks for, as half-open
# [lo, hi) ranges with an open last range.
BUCKETS = {
    "step": ((0, 1), (1, 2), (2, 3), (3, None)),
    "turn": ((0, 10), (10, 15), (15, 20), (20, None)),
    "len": ((0, 12), (12, 15), (15, None)),
}


def bucket_label(lo: int, hi: int | None) -> str:
    if hi is None:
        return f"{lo}+"
    return str(lo) if hi == lo + 1 else f"{lo}-{hi - 1}"


def bucket_of(axis: str, value: float) -> tuple[int, int | None]:
    for lo, hi in BUCKETS[axis]:
        if value >= lo and (hi is None or value < hi):
            return lo, hi
    raise ValueError(f"{axis} value {value} below every range")


# ---------------------------------------------------------------------------
# planted predictions for the score workload


def plant_predictions(seed: int, corpus: list[dict], split: str,
                      wrong_share: float = 0.3, omit_share: float = 0.1):
    """Prediction rows for every (turn, slot) of ``split``, and the plan
    they follow. A turn picked to be wrong gets exactly one wrong slot;
    every other slot is gold up to case and whitespace jitter. A share of
    the rows whose gold is "none" is omitted. Returns the rows, a map
    (dialogue_id, turn) -> whether the turn is planted correct, and the
    number of rows omitted."""
    rng = random.Random(seed * 7919 + 1)
    explanations = [" ".join(_words(rng, rng.randint(6, 14))) for _ in range(256)]
    rows = []
    correct: dict[tuple[str, int], bool] = {}
    omitted = 0
    for dialogue in corpus:
        if dialogue["split"] != split:
            continue
        for turn in dialogue["turns"]:
            wrong_slot = rng.choice(SLOTS).slot_id if rng.random() < wrong_share else None
            correct[(dialogue["dialogue_id"], turn["index"])] = wrong_slot is None
            for slot in SLOTS:
                gold = turn["state"].get(slot.slot_id, NONE)
                if slot.slot_id == wrong_slot:
                    value = f"not {gold}" if gold != NONE else rng.choice(slot.pool)
                else:
                    if gold == NONE and rng.random() < omit_share:
                        omitted += 1
                        continue
                    jitter = rng.random()
                    value = gold.upper() if jitter < 0.2 else f"  {gold}  " if jitter < 0.3 else gold
                rows.append({"dialogue_id": dialogue["dialogue_id"], "turn": turn["index"],
                             "slot_id": slot.slot_id,
                             "text": f"{value} | {rng.choice(explanations)}"})
    return rows, correct, omitted


def expected_report(corpus: list[dict], split: str, correct: dict, omitted: int) -> dict:
    """Overall JGA, turn and dialogue counts, missing count and every
    bucket's (label, n_turns, jga), from the plan and the benchmark's own
    bucket assignment."""
    tallies = {axis: {edge: [0, 0] for edge in edges} for axis, edges in BUCKETS.items()}
    n_dialogues = 0
    for dialogue in corpus:
        if dialogue["split"] != split:
            continue
        n_dialogues += 1
        steps = max_step_by_turn(dialogue)
        length = avg_utterance_len(dialogue)
        for position, turn in enumerate(dialogue["turns"]):
            ok = correct[(dialogue["dialogue_id"], turn["index"])]
            for axis, value in (("step", steps[position]), ("turn", len(dialogue["turns"])),
                                ("len", length)):
                tally = tallies[axis][bucket_of(axis, value)]
                tally[0] += 1
                tally[1] += ok
    buckets = []
    for axis, edges in tallies.items():
        for (lo, hi), (n, ok) in edges.items():
            buckets.append({"axis": axis, "label": bucket_label(lo, hi), "lo": lo, "hi": hi,
                            "n_turns": n, "jga": ok / n if n else None})
    return {
        "overall_jga": sum(correct.values()) / len(correct),
        "n_dialogues": n_dialogues,
        "n_turns": len(correct),
        "n_missing_predictions": omitted,
        "buckets": buckets,
    }


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, ensure_ascii=False))


def write_jsonl(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")
