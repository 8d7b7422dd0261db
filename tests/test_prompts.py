import pytest
from hypothesis import given
from hypothesis import strategies as st

from omnieval import (
    DatasetManifest,
    EvalItem,
    FewShotExemplar,
    PromptTemplate,
    QuestionType,
    flatten_bundle,
    render_choice_block,
    render_prompt,
)
from omnieval.errors import ChoiceOverflow, ConfigError, EmptyChoices

TEMPLATE = PromptTemplate()

ITEM = EvalItem(
    id="q1",
    instruction="What is the capital of France?",
    question_type=QuestionType.SINGLE_CHOICE,
    answer="A",
    choices=("Paris", "Rome"),
    few_shot=(
        FewShotExemplar("2+2?", "4"),
        FewShotExemplar("Colour of the sky?", "B", choices=("green", "blue")),
    ),
)

# Hand-rendered from the stated concatenation rules before the builder existed.
GOLDEN_COT_FINAL_TURN = (
    "What is the capital of France?\n"
    "A. Paris\n"
    "B. Rome\n"
    "Let's think step by step.\n"
    "Answer:"
)


class TestChoiceBlock:
    def test_default_format(self):
        assert render_choice_block(["Paris", "Rome"], TEMPLATE) == "A. Paris\nB. Rome"

    def test_empty(self):
        with pytest.raises(EmptyChoices):
            render_choice_block([], TEMPLATE)

    def test_overflow(self):
        with pytest.raises(ChoiceOverflow):
            render_choice_block([str(i) for i in range(27)], TEMPLATE)

    def test_custom_format(self):
        template = PromptTemplate(choice_line_format="({letter}) {text}")
        assert render_choice_block(["x"], template) == "(A) x"

    def test_template_validates_placeholders(self):
        with pytest.raises(ConfigError):
            PromptTemplate(choice_line_format="{letter} only")

    @pytest.mark.parametrize(
        "field,value,kind",
        [("answer_prefix", 5, "a string"), ("question_prefix", None, "a string"),
         ("choice_line_format", ["{letter}", "{text}"], "a string"), ("system_text", 1, "a string or null")],
    )
    def test_template_fields_must_be_strings(self, field, value, kind):
        with pytest.raises(ConfigError, match=rf"^{field} must be {kind}, got "):
            PromptTemplate(**{field: value})

    def test_system_text_may_be_null(self):
        assert PromptTemplate(system_text=None).system_text is None


class TestRenderPrompt:
    def test_zero_shot_no_choices(self):
        item = EvalItem(
            id="q2", instruction="Why is the sky blue?",
            question_type=QuestionType.FREE_OPEN, answer="scattering",
        )
        bundle = render_prompt(item, TEMPLATE, use_cot=False, num_shots=0)
        assert len(bundle.turns) == 1
        assert bundle.turns[0].text == "Why is the sky blue?\nAnswer:"

    def test_two_shot_turn_pairing(self):
        bundle = render_prompt(ITEM, TEMPLATE, use_cot=False, num_shots=2)
        assert [t.role for t in bundle.turns] == ["user", "assistant", "user", "assistant", "user"]
        assert bundle.turns[1].text == "4"
        # exemplar with choices renders its own choice block
        assert "A. green\nB. blue" in bundle.turns[2].text
        assert bundle.turns[3].text == "B"

    def test_cot_golden(self):
        bundle = render_prompt(ITEM, TEMPLATE, use_cot=True, num_shots=0)
        assert bundle.turns[-1].text == GOLDEN_COT_FINAL_TURN

    def test_item_cot_directive_wins(self):
        item = EvalItem(
            id="q3", instruction="q", question_type=QuestionType.FREE_OPEN,
            answer="a", cot_directive="Reason carefully in French.",
        )
        bundle = render_prompt(item, TEMPLATE, use_cot=True, num_shots=0)
        assert "Reason carefully in French." in bundle.turns[-1].text
        assert "Let's think step by step." not in bundle.turns[-1].text
        # the directive applies even when the CoT flag is off
        bundle = render_prompt(item, TEMPLATE, use_cot=False, num_shots=0)
        assert "Reason carefully in French." in bundle.turns[-1].text

    def test_excess_shots_truncated_with_warning(self, caplog):
        with caplog.at_level("WARNING"):
            bundle = render_prompt(ITEM, TEMPLATE, use_cot=False, num_shots=5)
        assert len(bundle.turns) == 5
        assert any("5 shots requested" in m for m in caplog.messages)

    def test_attachments_on_final_turn(self):
        item = EvalItem(
            id="q4", instruction="Describe the image.",
            question_type=QuestionType.FREE_OPEN, answer="a", images=("img.png",),
        )
        bundle = render_prompt(item, TEMPLATE)
        assert bundle.turns[-1].attachments == ("img.png",)

    def test_system_text_carried(self):
        template = PromptTemplate(system_text="Be terse.")
        bundle = render_prompt(ITEM, template)
        assert bundle.system_text == "Be terse."

    def test_deterministic(self):
        assert render_prompt(ITEM, TEMPLATE, True, 2) == render_prompt(ITEM, TEMPLATE, True, 2)

    @given(st.integers(min_value=0, max_value=4), st.booleans())
    def test_no_turn_text_is_empty(self, shots, use_cot):
        bundle = render_prompt(ITEM, TEMPLATE, use_cot=use_cot, num_shots=shots)
        assert all(turn.text for turn in bundle.turns)
        if shots == 0:
            assert len(bundle.turns) == 1


# items whose exemplars are equal but not all the same objects, in either order
SHARED_SHOTS = (FewShotExemplar("Colour of the sky?", "B", choices=("green", "blue")), FewShotExemplar("2+2?", "4"))
SHARING_ITEMS = [
    EvalItem(
        id=f"m{i}", instruction=f"Question {i}?", question_type=QuestionType.SINGLE_CHOICE,
        answer="A", choices=("yes", "no"),
        few_shot=SHARED_SHOTS if i % 2 else (FewShotExemplar("2+2?", "4"), SHARED_SHOTS[0]),
    )
    for i in range(4)
]


class TestRenderMemo:
    TEMPLATES = (TEMPLATE, PromptTemplate(system_text="Be terse.", question_prefix="Q: ",
                                          choice_line_format="({letter}) {text}", answer_prefix="A:"))

    def test_memo_renders_what_a_render_without_it_does(self):
        memo: dict = {}
        for template in self.TEMPLATES:  # one memo under both templates
            for item in SHARING_ITEMS:
                for shots in (2, 1):
                    fresh = render_prompt(item, template, True, shots)
                    assert render_prompt(item, template, True, shots, memo) == fresh
        assert len(memo) == 2 * len(self.TEMPLATES)
        first, second = (render_prompt(item, TEMPLATE, False, 2, memo) for item in SHARING_ITEMS[:2])
        assert first.turns[0] is second.turns[2] and first.turns[1] is second.turns[3]

    def test_run_renders_each_exemplar_once(self, monkeypatch):
        from omnieval import RunConfig, StubBackend, prompts, run_generation_eval

        rendered = []
        question_text = prompts._question_text
        monkeypatch.setattr(prompts, "_question_text",
                            lambda source, *a, **k: rendered.append(source) or question_text(source, *a, **k))
        records = run_generation_eval(SHARING_ITEMS, StubBackend(default_reply="A"),
                                      RunConfig(num_shots=2, concurrency_limit=1))  # no race to render first
        assert [r.error for r in records] == [None] * len(SHARING_ITEMS)
        assert sorted(map(repr, rendered)) == sorted(map(repr, [*SHARING_ITEMS, *SHARED_SHOTS]))


class TestFlattenBundle:
    def test_exemplars_join_with_separator(self):
        bundle = render_prompt(ITEM, TEMPLATE, use_cot=False, num_shots=1)
        flat = flatten_bundle(bundle, "\n\n")
        assert flat == "2+2?\nAnswer: 4\n\nWhat is the capital of France?\nA. Paris\nB. Rome\nAnswer:"

    def test_system_block_first(self):
        template = PromptTemplate(system_text="Be terse.")
        bundle = render_prompt(ITEM, template, num_shots=0)
        assert flatten_bundle(bundle).startswith("Be terse.\n\n")
