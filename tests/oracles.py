"""Independent brute-force reference implementations used to cross-check the
shipped metric code. Deliberately naive: plain lists, explicit loops, full DP
matrices. Keep these free of any imports from the package under test.
"""

import math
import unicodedata


def _tokens(text):
    return text.lower().split()


def _ngram_list(tokens, n):
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def brute_bleu(candidate, references, max_order=4):
    """Sentence BLEU by naive n-gram enumeration.

    Clipped precisions with multi-reference clipping, p1 unsmoothed, add-one
    smoothing for n >= 2, orders with no candidate n-grams dropped, brevity
    penalty exp(1 - r/c) with r the closest reference length (ties to the
    shorter reference). Empty candidate scores 0.
    """
    if not references:
        raise ValueError("references must be non-empty")
    cand = _tokens(candidate)
    refs = [_tokens(r) for r in references]
    if not cand:
        return 0.0

    log_precisions = []
    for n in range(1, max_order + 1):
        cand_ngrams = _ngram_list(cand, n)
        total = len(cand_ngrams)
        if total == 0:
            continue
        matched = 0
        for gram in set(cand_ngrams):
            cand_count = cand_ngrams.count(gram)
            best_ref_count = 0
            for ref in refs:
                ref_count = _ngram_list(ref, n).count(gram)
                if ref_count > best_ref_count:
                    best_ref_count = ref_count
            matched += min(cand_count, best_ref_count)
        if n == 1:
            if matched == 0:
                return 0.0
            p = matched / total
        else:
            p = (matched + 1) / (total + 1)
        log_precisions.append(math.log(p))

    geo_mean = math.exp(sum(log_precisions) / len(log_precisions))

    c = len(cand)
    r = min((abs(len(ref) - c), len(ref)) for ref in refs)[1]
    bp = math.exp(1.0 - r / c) if c < r else 1.0
    return bp * geo_mean


def brute_corpus_bleu(candidates, references, max_order=4):
    """Corpus BLEU by naive n-gram enumeration, pooled over all pairs.

    Clipped matches and n-gram totals of each order, the candidate lengths c
    and the closest reference lengths r (ties to the shorter reference) are
    summed over the pairs first; an empty candidate adds only its r. The
    precisions, smoothing and brevity penalty are then those of
    ``brute_bleu``, in the same float operations. No candidate tokens at all
    scores 0.
    """
    matched = [0] * max_order
    total = [0] * max_order
    c = 0
    r = 0
    for candidate, raw_refs in zip(candidates, references):
        cand = _tokens(candidate)
        refs = [_tokens(ref) for ref in raw_refs]
        r += min((abs(len(ref) - len(cand)), len(ref)) for ref in refs)[1]
        c += len(cand)
        for n in range(1, max_order + 1):
            cand_ngrams = _ngram_list(cand, n)
            total[n - 1] += len(cand_ngrams)
            for gram in set(cand_ngrams):
                best_ref_count = max(_ngram_list(ref, n).count(gram) for ref in refs)
                matched[n - 1] += min(cand_ngrams.count(gram), best_ref_count)
    if c == 0:
        return 0.0

    log_precisions = []
    for n in range(1, max_order + 1):
        if total[n - 1] == 0:
            continue
        if n == 1:
            if matched[0] == 0:
                return 0.0
            p = matched[0] / total[0]
        else:
            p = (matched[n - 1] + 1) / (total[n - 1] + 1)
        log_precisions.append(math.log(p))

    geo_mean = math.exp(sum(log_precisions) / len(log_precisions))
    bp = math.exp(1.0 - r / c) if c < r else 1.0
    return bp * geo_mean


def brute_lcs(a, b):
    """LCS length by the full quadratic dynamic-programming table."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def brute_rouge_l(candidate, reference):
    """ROUGE-L precision/recall/F1 over the full DP table."""
    cand = _tokens(candidate)
    ref = _tokens(reference)
    if not cand or not ref:
        return (0.0, 0.0, 0.0)
    lcs = brute_lcs(cand, ref)
    precision = lcs / len(cand)
    recall = lcs / len(ref)
    if precision + recall == 0:
        return (precision, recall, 0.0)
    return (precision, recall, 2 * precision * recall / (precision + recall))


def brute_rouge_n(candidate, reference, n):
    """ROUGE-N precision/recall/F1 by naive clipped overlap counting."""
    cand_ngrams = _ngram_list(_tokens(candidate), n)
    ref_ngrams = _ngram_list(_tokens(reference), n)
    if not cand_ngrams or not ref_ngrams:
        return (0.0, 0.0, 0.0)
    overlap = 0
    for gram in set(cand_ngrams):
        overlap += min(cand_ngrams.count(gram), ref_ngrams.count(gram))
    precision = overlap / len(cand_ngrams)
    recall = overlap / len(ref_ngrams)
    if precision + recall == 0:
        return (precision, recall, 0.0)
    return (precision, recall, 2 * precision * recall / (precision + recall))


def naive_normalize_text(text):
    """normalize_text as its docstring states it, one step at a time until a
    pass changes nothing: NFKC, lowercase, drop edge characters that are
    whitespace, punctuation or symbols, collapse whitespace runs to one space,
    drop one leading "a", "an" or "the" and the space after it.
    """
    while True:
        before = text
        chars = list(unicodedata.normalize("NFKC", text).lower())
        while chars and _edge_junk(chars[0]):
            chars.pop(0)
        while chars and _edge_junk(chars[-1]):
            chars.pop()
        words = []
        word = ""
        for ch in chars:
            if ch.isspace():
                if word:
                    words.append(word)
                word = ""
            else:
                word += ch
        if word:
            words.append(word)
        if words and words[0] in ("a", "an", "the") and len(words) > 1:
            words.pop(0)
        text = " ".join(words)
        if text == before:
            return text


def _edge_junk(ch):
    return ch.isspace() or unicodedata.category(ch)[0] in ("P", "S")
