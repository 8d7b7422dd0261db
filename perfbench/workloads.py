"""Seeded workload generator.

For one workload and one seed it builds the dataset, the omnieval config, the
reply plan the loopback server answers from, and the expected results. The
expected results come from the plan alone (planned replies, planned answers,
the logprob vocabulary), never from omnieval.

The aggregate shape of every workload (item count, question-type counts,
choice counts, extractor items) is the same for every seed; the seed only
moves contents and positions. So requests per item and the share of failed
operations repeat exactly across seeds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

SYLLABLES = (
    "ka", "lo", "mi", "ru", "te", "vo", "sa", "ne", "pi", "du", "fe", "go",
    "zu", "ha", "ri", "mo", "bel", "tor", "quin", "dra", "sel", "vik", "lum", "pra",
)
# Words the extraction rules or normalize_text treat specially never appear.
RESERVED_WORDS = {
    "a", "an", "the", "yes", "no", "true", "false", "correct", "incorrect", "not",
    "never", "and", "or", "answer", "answers", "is", "are", "right", "final", "boxed",
}
FILLER = (
    "Let us reason about this step by step.",
    "The first clue points one way and the second clue points another.",
    "Weighing every option carefully helps here.",
    "Recall the definitions involved before deciding.",
    "Some of the options can be ruled out quickly.",
    "This needs a moment of careful thought.",
)
# Extractor-path items carry an "xid" tag the server routes on; these replies
# defeat every regex rule and fallback for choice and yes/no questions.
UNREADABLE = (
    "hmm, case xid{idx:06d} is hard to call from this description alone.",
    "several options look plausible for case xid{idx:06d}, so it stays open.",
)
# Replies with no usable content and no extractor to rescue them.
HOPELESS = "hmm, this one is hard to call from the description alone."

LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
MODEL = "bench-model"
EXTRACTOR_MODEL = "bench-extractor"
EXTRACT_EVERY = 15  # one item in fifteen goes to the extractor on gen_http_fast


@dataclass(frozen=True)
class Spec:
    """One workload. A round of a run is ``setups`` set-ups, then ``cycles``
    cycles in one omnieval process; a cycle is a cold eval over an emptied
    cache, ``warm`` evals over the filled cache and ``rescore`` score calls."""

    name: str
    mode: str  # "generate" or "ppl"
    items: int
    categories: int
    concurrency: int
    delay_ms: int  # server delay; the stub workload has no server
    server: bool
    extractor: bool
    metrics: tuple[str, ...]
    shots: int
    setups: int
    cycles: int
    warm: int
    rescore: int


SPECS = {
    s.name: s
    for s in (
        Spec("gen_http_fast", "generate", 450, 20, 2, 0, True, True, ("accuracy",), 0,
             setups=2, cycles=3, warm=4, rescore=10),
        Spec("ppl_http_slow", "ppl", 42, 12, 2, 20, True, False, ("accuracy",), 5,
             setups=2, cycles=1, warm=16, rescore=40),
        Spec("gen_stub_large", "generate", 4000, 200, 1, 0, False, False,
             ("accuracy", "bleu", "rougeL"), 0, setups=2, cycles=2, warm=1, rescore=1),
    )
}


def make_words(rng: random.Random, count: int, lo: int = 2, hi: int = 3) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < count:
        word = "".join(rng.choice(SYLLABLES) for _ in range(rng.randint(lo, hi)))
        if word in seen or word in RESERVED_WORDS:
            continue
        seen.add(word)
        words.append(word)
    return words


def _phrase(rng: random.Random, words: list[str], lo: int, hi: int) -> str:
    return " ".join(rng.sample(words, rng.randint(lo, hi)))


def _cot(rng: random.Random, marker: str, mention: str | None = None) -> str:
    parts = rng.sample(FILLER, rng.randint(1, 3))
    if mention:
        parts.insert(1, mention)
    return " ".join(parts) + " " + marker


def _jaccard(got, want) -> float:
    got, want = set(got), set(want)
    union = got | want
    return len(got & want) / len(union) if union else 0.0


# --- generate mode -----------------------------------------------------------

def _choice_item(rng, words, qtype):
    n = rng.randint(3, 6)
    choices = [_phrase(rng, words, 1, 3) for _ in range(n)]
    letters = LETTERS[:n]
    if qtype == "single_choice":
        truth = rng.choice(letters)
        return choices, truth
    truth = sorted(rng.sample(letters, rng.randint(2, min(3, n))))
    return choices, truth


def _gen_item(rng, words, other_words, qtype, idx, category, via_extractor, hopeless):
    """One generate-mode item: (dataset record, planned reply, extractor reply,
    expected outcome)."""
    qid = f"qid{idx:06d}"
    instruction = f"{qid}. {_phrase(rng, words, 4, 9).capitalize()}?"
    record = {"id": f"item-{idx:06d}", "instruction": instruction, "question_type": qtype,
              "category": category}
    correct = rng.random() < 0.7
    extractor_reply = None
    status = "extracted"
    scores: dict[str, float] = {}

    if qtype in ("single_choice", "multiple_choice"):
        choices, truth = _choice_item(rng, words, qtype)
        record["choices"] = choices
        letters = LETTERS[: len(choices)]
        if qtype == "single_choice":
            record["answer"] = truth
            value = truth if correct else rng.choice([c for c in letters if c != truth])
            shown = value
            marker = rng.choice((
                f"Therefore, the answer is ({value}).", f"Answer: {value}",
                f"So the correct option is {value}.", f"\\boxed{{{value}}}",
            ))
            scores["accuracy"] = 1.0 if value == truth else 0.0
        else:
            record["answer"] = "".join(truth)
            value = list(truth)
            while not correct and value == truth:
                value = sorted(rng.sample(letters, rng.randint(1, len(letters) - 1)))
            shown = " and ".join(value) if len(value) < 3 else ", ".join(value)
            marker = rng.choice((
                f"Therefore, the answer is {shown}.", f"Answer: {', '.join(value)}",
                f"\\boxed{{{', '.join(value)}}}",
            ))
            scores["accuracy"] = 1.0 if value == truth else 0.0
            scores["multi_choice_jaccard"] = _jaccard(value, truth)
        other = rng.choice(letters)
        reply = _cot(rng, marker, f"Option {other} deserves a second look.")
    elif qtype == "yes_no":
        truth = rng.choice(("yes", "no"))
        record["answer"] = truth
        value = truth if correct else ("no" if truth == "yes" else "yes")
        shown = value
        reply = _cot(rng, rng.choice((f"Hence the answer is {value}.", f"Answer: {value}")))
        scores["accuracy"] = 1.0 if value == truth else 0.0
    else:  # fill_blank / free_open
        lo, hi = (1, 3) if qtype == "fill_blank" else (6, 12)
        truth = _phrase(rng, words, lo, hi)
        record["answer"] = truth
        value = truth if correct else _phrase(rng, other_words, lo, hi)
        reply = _cot(rng, f"The answer is {value}.")
        same = 1.0 if value == truth else 0.0
        scores.update({"accuracy": same, "bleu": same, "rougeL": same})

    if via_extractor:
        reply = rng.choice(UNREADABLE).format(idx=idx)
        extractor_reply = shown if qtype != "multiple_choice" else ", ".join(value)
        status = "model_extracted"
    elif hopeless:
        reply = HOPELESS
        value = None
        status = "unextracted"
        scores = {k: 0.0 for k in scores}
    expect = {"id": record["id"], "category": category, "qtype": qtype, "value": value,
              "status": status, "scores": scores}
    return record, reply, extractor_reply, expect


def _generate_mode(spec: Spec, seed: int):
    rng = random.Random(f"{spec.name}:{seed}")
    words = make_words(rng, 4000)
    other_words = make_words(random.Random(f"{spec.name}:disjoint:{seed}"), 400, 4, 4)
    other_words = [w for w in other_words if w not in set(words)]
    categories = [f"cat{c:03d}" for c in range(spec.categories)]
    # Fixed counts per type, shuffled by seed, so every seed has the same mix.
    types = ("single_choice", "multiple_choice", "yes_no", "fill_blank", "free_open")
    weights = (0.35, 0.15, 0.2, 0.1, 0.2)
    extract_slots = set()
    if spec.extractor:
        extract_slots = {i for i in range(spec.items) if i % EXTRACT_EVERY == EXTRACT_EVERY // 2}
    free_slots = [i for i in range(spec.items) if i not in extract_slots]
    counts = [int(w * len(free_slots)) for w in weights]
    counts[0] += len(free_slots) - sum(counts)
    qtypes = [t for t, c in zip(types, counts) for _ in range(c)]
    rng.shuffle(qtypes)
    slot_type = dict(zip(free_slots, qtypes))
    hopeless = set()
    if not spec.extractor:
        # one choice or yes/no item in fifty has a reply nothing can read
        readable = [i for i in free_slots if slot_type[i] not in ("fill_blank", "free_open")]
        hopeless = set(readable[::50])

    keep = set(spec.metrics) | {"multi_choice_jaccard"}  # accuracy adds the Jaccard diagnostic
    data, chat, extract, expected = [], {}, {}, []
    for idx in range(spec.items):
        category = categories[idx % len(categories)]
        if idx in extract_slots:
            # Extractor items do not depend on the seed: they are the one set
            # of inputs on which a known fault fails every time.
            fixed = random.Random(f"extractor-item:{idx}")
            fixed_words = make_words(fixed, 60)
            qtype = ("single_choice", "multiple_choice", "yes_no")[(idx // EXTRACT_EVERY) % 3]
            item = _gen_item(fixed, fixed_words, other_words, qtype, idx, category, True, False)
        else:
            item = _gen_item(rng, words, other_words, slot_type[idx], idx, category, False,
                             idx in hopeless)
        record, reply, extractor_reply, expect = item
        expect["scores"] = {k: v for k, v in expect["scores"].items() if k in keep}
        data.append(record)
        chat[f"{idx:06d}"] = reply
        if extractor_reply is not None:
            extract[f"{idx:06d}"] = extractor_reply
        expected.append(expect)
    plan = {"chat": chat, "extract": extract, "vocab": {}}
    requests = {"chat": spec.items + len(extract), "completions": 0}
    return data, plan, expected, requests


# --- ppl mode ----------------------------------------------------------------

def _ppl_mode(spec: Spec, seed: int):
    rng = random.Random(f"{spec.name}:{seed}")
    words = make_words(rng, 1500)
    # Logprobs are multiples of 1/8, so every sum is exact in binary floating
    # point and planned ties stay ties.
    vocab = {w: -rng.randint(1, 48) / 8 for w in words}
    good = [w for w in words if vocab[w] >= -0.375]
    poor = [w for w in words if vocab[w] <= -2.0]
    categories = [f"cat{c:03d}" for c in range(spec.categories)]
    # 2..8 choices, the same count of each for every seed.
    counts = [2 + (i % 7) for i in range(spec.items)]
    rng.shuffle(counts)
    pools = {c: [_ppl_exemplar(rng, words) for _ in range(8)] for c in categories}

    data, expected = [], []
    for idx, n in enumerate(counts):
        category = categories[idx % len(categories)]
        if idx % 4 == 0:
            # Planned tie: two choices hold the same two likely words in either
            # order, so they share the best total and the best per-character
            # score, and both argmaxes must break to the lower index.
            choices = _distinct(n, lambda: rng.choice(poor))
            i, j = sorted(rng.sample(range(n), 2))
            w1, w2 = rng.sample(good, 2)
            choices[i], choices[j] = f"{w1} {w2}", f"{w2} {w1}"
        else:
            choices = _distinct(n, lambda: _phrase(rng, words, 1, 3))
        totals = [sum(vocab[w] for w in c.split(" ")) for c in choices]
        chars = [len(c) + 1 for c in choices]
        norm = [t / c for t, c in zip(totals, chars)]
        pred = LETTERS[max(range(n), key=lambda k: (totals[k], -k))]
        pred_norm = LETTERS[max(range(n), key=lambda k: (norm[k], -k))]
        truth = pred if rng.random() < 0.6 else rng.choice(LETTERS[:n])
        shots = rng.sample(pools[category], spec.shots)
        data.append({
            "id": f"item-{idx:06d}",
            "instruction": f"qid{idx:06d}. {_phrase(rng, words, 6, 14).capitalize()}?",
            "question_type": "single_choice",
            "choices": choices,
            "answer": truth,
            "category": category,
            "few_shot": shots,
        })
        expected.append({
            "id": f"item-{idx:06d}", "category": category, "qtype": "single_choice",
            "value": pred, "status": "extracted", "totals": totals, "chars": chars,
            "scores": {"accuracy": 1.0 if pred == truth else 0.0,
                       "accuracy_norm": 1.0 if pred_norm == truth else 0.0},
        })
    plan = {"chat": {}, "extract": {}, "vocab": vocab}
    requests = {"chat": 0, "completions": sum(counts)}
    return data, plan, expected, requests


def _distinct(n, draw) -> list[str]:
    # Equal choice texts would share one cache key and skip a request.
    out: list[str] = []
    while len(out) < n:
        text = draw()
        if text not in out:
            out.append(text)
    return out


def _ppl_exemplar(rng, words):
    n = rng.randint(3, 5)
    return {
        "instruction": _phrase(rng, words, 6, 14).capitalize() + "?",
        "choices": [_phrase(rng, words, 1, 3) for _ in range(n)],
        "answer": rng.choice(LETTERS[:n]),
    }


# --- assembly ----------------------------------------------------------------

def build(name: str, seed: int, items: int | None = None) -> dict:
    """Everything one run needs: dataset, plan, config (without base_url),
    expectations and the planned request counts of one cold eval. ``items``
    cuts the workload down, for the self-tests."""
    spec = replace(SPECS[name], items=items) if items else SPECS[name]
    if spec.mode == "ppl":
        data, plan, expected, requests = _ppl_mode(spec, seed)
    else:
        data, plan, expected, requests = _generate_mode(spec, seed)
    dataset = {"meta": {"name": name, "version": str(seed), "metrics": list(spec.metrics)},
               "data": data}
    if spec.server:
        backend = {"type": "http", "model_name": MODEL, "timeout_s": 10.0}
    else:
        backend = {"type": "stub", "model_name": MODEL, "scripted": {
            rec["id"]: plan["chat"][rec["id"][5:]] for rec in data}}
    config = {
        "mode": spec.mode,
        "num_shots": spec.shots,
        "concurrency_limit": spec.concurrency,
        "max_retries": 3,
        "backoff_base_ms": 200,
        "backend": backend,
    }
    if spec.extractor:
        config["extractor"] = {"type": "http", "model_name": EXTRACTOR_MODEL, "timeout_s": 10.0}
    return {"spec": spec, "dataset": dataset, "plan": plan, "config": config,
            "expected": expected, "requests": requests,
            "n_extract": len(plan["extract"])}


def expected_report(expected: list[dict], score_override: dict | None = None) -> dict:
    """Category and overall means of every metric, to full precision, as
    {category: {metric: (mean, support)}} with "__all__" for the overall row.
    ``score_override`` replaces the planned scores of some items by id."""
    rows: dict[str, dict[str, list[float]]] = {}
    for e in expected:
        scores = (score_override or {}).get(e["id"], e["scores"])
        for cat in ("__all__", e["category"]):
            for metric, score in scores.items():
                rows.setdefault(cat, {}).setdefault(metric, []).append(score)
    return {cat: {m: (math.fsum(v) / len(v), len(v)) for m, v in metrics.items()}
            for cat, metrics in rows.items()}


def expected_corpus_bleu(expected: list[dict], dataset: dict) -> float | None:
    """Pooled corpus BLEU (max order 4, p1 unsmoothed, add-one for n >= 2,
    brevity penalty against the single reference) over the textual items."""
    truth = {rec["id"]: rec["answer"] for rec in dataset["data"]}
    matched = [0] * 4
    total = [0] * 4
    cand_len = ref_len = 0
    seen = False
    for e in expected:
        if "bleu" not in e["scores"]:
            continue
        seen = True
        cand = (e["value"] or "").split()
        ref = truth[e["id"]].split()
        ref_len += len(ref)
        cand_len += len(cand)
        for n in range(1, 5):
            grams = max(len(cand) - n + 1, 0)
            total[n - 1] += grams
            if cand == ref:
                matched[n - 1] += grams  # planned replies either equal the reference
    if not seen or cand_len == 0:
        return None
    logs = []
    for n in range(4):
        if total[n] == 0:
            continue
        if n == 0:
            if matched[0] == 0:
                return 0.0
            logs.append(math.log(matched[0] / total[0]))
        else:
            logs.append(math.log((matched[n] + 1) / (total[n] + 1)))
    bp = math.exp(1.0 - ref_len / cand_len) if cand_len < ref_len else 1.0
    return bp * math.exp(sum(logs) / len(logs))
