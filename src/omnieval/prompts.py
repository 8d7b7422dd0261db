"""Prompt assembly: instruction + choice block + few-shot exemplar turns +
chain-of-thought directive, rendered into a backend-ready conversation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .dataset import EvalItem, FewShotExemplar
from .errors import ChoiceOverflow, ConfigError, EmptyChoices
from .filters import LETTERS

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class PromptTemplate:
    system_text: str | None = None
    question_prefix: str = ""
    choice_line_format: str = "{letter}. {text}"
    answer_prefix: str = "Answer:"
    exemplar_separator: str = "\n\n"
    cot_suffix: str = "Let's think step by step."

    def __post_init__(self):
        if "{letter}" not in self.choice_line_format or "{text}" not in self.choice_line_format:
            raise ConfigError("choice_line_format must contain {letter} and {text}")


@dataclass(frozen=True)
class Turn:
    role: str  # "user" or "assistant"
    text: str
    attachments: tuple[str, ...] = ()


@dataclass(frozen=True)
class PromptBundle:
    """A fully assembled conversation: zero or more exemplar user/assistant
    pairs followed by the final user turn. ``item_id`` ties the bundle back to
    its dataset record (used by the scripted stub backend)."""

    system_text: str | None
    turns: tuple[Turn, ...]
    item_id: str | None = None

    def __post_init__(self):
        if not self.turns or self.turns[-1].role != "user":
            raise ConfigError("a prompt bundle must end with a user turn")
        for i, turn in enumerate(self.turns[:-1]):
            expected = "user" if i % 2 == 0 else "assistant"
            if turn.role != expected:
                raise ConfigError("exemplar turns must alternate user/assistant")

    @property
    def final_text(self) -> str:
        return self.turns[-1].text


def render_choice_block(choices, template: PromptTemplate) -> str:
    """One line per option, letters assigned by position."""
    if not choices:
        raise EmptyChoices("cannot render a choice block for zero choices")
    if len(choices) > len(LETTERS):
        raise ChoiceOverflow(f"{len(choices)} choices exceed the {len(LETTERS)}-letter range")
    return "\n".join(
        template.choice_line_format.format(letter=LETTERS[i], text=text)
        for i, text in enumerate(choices)
    )


def render_prompt(
    item: EvalItem,
    template: PromptTemplate,
    use_cot: bool = False,
    num_shots: int = 0,
) -> PromptBundle:
    """Assemble the conversation for one item.

    The final user turn is question_prefix + instruction, the choice block
    when the item has options, the chain-of-thought directive (an item-level
    ``cot_directive`` always wins over the template suffix, which only appears
    when ``use_cot`` is set), and the answer prefix. Each exemplar becomes a
    user/assistant turn pair rendered the same way, minus the CoT line.
    Requesting more shots than the item carries truncates with a warning.
    """
    exemplars = item.few_shot[:num_shots]
    if num_shots > len(item.few_shot):
        logger.warning(
            "item %s: %d shots requested but only %d exemplars available",
            item.id, num_shots, len(item.few_shot),
        )

    turns: list[Turn] = []
    for exemplar in exemplars:
        turns.append(Turn("user", _question_text(exemplar, template, cot_text=None)))
        turns.append(Turn("assistant", exemplar.answer))

    if item.cot_directive is not None:
        cot_text = item.cot_directive
    elif use_cot:
        cot_text = template.cot_suffix
    else:
        cot_text = None
    turns.append(Turn("user", _question_text(item, template, cot_text), attachments=item.images))
    return PromptBundle(system_text=template.system_text, turns=tuple(turns), item_id=item.id)


def _question_text(source: EvalItem | FewShotExemplar, template: PromptTemplate, cot_text: str | None) -> str:
    parts = [template.question_prefix + source.instruction]
    if source.choices:
        parts.append(render_choice_block(source.choices, template))
    if cot_text:
        parts.append(cot_text)
    if template.answer_prefix:
        parts.append(template.answer_prefix)
    return "\n".join(parts)


def flatten_bundle(bundle: PromptBundle, separator: str = "\n\n") -> str:
    """Collapse a conversation into one completion-style string.

    Exemplar pairs become "question answer" blocks; blocks (and the system
    text) are joined with the exemplar separator. Used for loglikelihood
    scoring, where the continuation is appended directly after the final
    answer prefix.
    """
    blocks: list[str] = []
    if bundle.system_text:
        blocks.append(bundle.system_text)
    turns = bundle.turns
    for i in range(0, len(turns) - 1, 2):
        blocks.append(turns[i].text + " " + turns[i + 1].text)
    blocks.append(turns[-1].text)
    return separator.join(blocks)
