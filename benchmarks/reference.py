"""Checks of arabner's outputs against values computed apart from it.

``Reference`` reads a checkpoint file by its documented layout (one JSON
manifest line, then little-endian float64 tensors at the listed offsets)
and runs the tagger in plain numpy from the model equations:

    LSTM  i,f,o = sigmoid(W_g x + R_g h + b_g),  g = tanh(W_c x + R_c h + b_c)
          c' = f * c + i * g,  h' = o * tanh(c')
    GRU   r,z = sigmoid(W_g x + U_g h + b_g),  n = tanh(W_n x + U_n (r * h) + b_n)
          h' = (1 - z) * n + z * h
    head  log_softmax(relu(W_d h + b_d))   (no relu with relu_head off)

Tokens are normalized by deleting U+064B..U+0652 and looked up in the
manifest vocabulary (ids from 2; 1 is UNK).
"""

import json
from pathlib import Path

import numpy as np

CATEGORIES = ("PER", "GPE", "LOC", "ORG", "TIM", "PRO", "MISC", "DIS", "GEO")
TAGS = ["O"] + [f"{p}-{c}" for c in CATEGORIES for p in "BIES"]
TAG_SET = frozenset(TAGS)
STRIP = dict.fromkeys(range(0x064B, 0x0653))
TIE = 1e-9  # log-prob gap under which two classes count as tied


class CheckFailed(AssertionError):
    """An output of the program disagrees with the reference or a property."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _sigmoid(v):
    return 0.5 * (1.0 + np.tanh(0.5 * v))


class Reference:
    def __init__(self, path: Path):
        raw = Path(path).read_bytes()
        nl = raw.index(b"\n")
        manifest = json.loads(raw[:nl].decode("utf-8"))
        self.cell = manifest["model"]["cell_kind"]
        self.relu_head = manifest["model"]["relu_head"]
        self.ids = {tok: i + 2 for i, tok in enumerate(manifest["vocab"])}
        self.t = {}
        for e in manifest["tensors"]:
            count = int(np.prod(e["shape"], dtype=np.int64))
            self.t[e["name"]] = np.frombuffer(raw, "<f8", count, nl + 1 + e["offset"]).reshape(e["shape"])

    def token_ids(self, raw_tokens: list[str]) -> list[int]:
        return [self.ids.get(tok.translate(STRIP), 1) for tok in raw_tokens]

    def log_probs(self, raw_tokens: list[str]) -> np.ndarray:
        t = self.t
        xs = t["embedding"][self.token_ids(raw_tokens)]
        H = t["dense_w"].shape[1]
        h = np.zeros(H)
        c = np.zeros(H)
        outs = []
        for x in xs:
            if self.cell == "lstm":
                gate = {g: t[f"cell.w_{g}"] @ x + t[f"cell.r_{g}"] @ h + t[f"cell.b_{g}"] for g in "ifoc"}
                c = _sigmoid(gate["f"]) * c + _sigmoid(gate["i"]) * np.tanh(gate["c"])
                h = _sigmoid(gate["o"]) * np.tanh(c)
            else:
                r = _sigmoid(t["cell.w_r"] @ x + t["cell.u_r"] @ h + t["cell.b_r"])
                z = _sigmoid(t["cell.w_z"] @ x + t["cell.u_z"] @ h + t["cell.b_z"])
                n = np.tanh(t["cell.w_n"] @ x + t["cell.u_n"] @ (r * h) + t["cell.b_n"])
                h = (1.0 - z) * n + z * h
            outs.append(h)
        pre = np.stack(outs) @ t["dense_w"].T + t["dense_b"]
        act = np.maximum(pre, 0.0) if self.relu_head else pre
        shifted = act - act.max(axis=1, keepdims=True)
        return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))

    def agrees(self, raw_tokens: list[str], tags: list[str]) -> bool:
        """True iff every tag is the reference argmax, up to ties below TIE."""
        lp = self.log_probs(raw_tokens)
        chosen = lp[np.arange(len(tags)), [TAGS.index(tag) for tag in tags]]
        return bool(np.all(chosen >= lp.max(axis=1) - TIE))

    def correct_tokens(self, sentences) -> tuple[int, int]:
        """(argmax matches, tokens) over TaggedSentence-like objects whose
        tokens are already normalized and whose tags print as tag strings."""
        correct = total = 0
        for s in sentences:
            pred = self.log_probs(s.tokens).argmax(axis=1)
            gold = [TAGS.index(str(tag)) for tag in s.tags]
            correct += int((pred == gold).sum())
            total += len(gold)
        return correct, total


def parse_predict_output(text: str, raw: list[list[str]]) -> list[list[str]]:
    """Check the ``token<TAB>tag`` block layout against the input tokens and
    return the tags of each block."""
    blocks = text.split("\n\n")
    check(text.endswith("\n\n"), "predict output does not end with a blank line")
    blocks = blocks[:-1]
    check(len(blocks) == len(raw), f"{len(blocks)} output blocks for {len(raw)} non-empty input lines")
    tags = []
    for block, tokens in zip(blocks, raw):
        lines = block.split("\n")
        check(len(lines) == len(tokens), f"block of {len(lines)} lines for {len(tokens)} tokens")
        row = []
        for line, tok in zip(lines, tokens):
            got_tok, sep, tag = line.partition("\t")
            check(sep == "\t" and got_tok == tok, f"predict line {line!r} does not echo token {tok!r}")
            check(tag in TAG_SET, f"predict emitted unknown tag {tag!r}")
            row.append(tag)
        tags.append(row)
    return tags
