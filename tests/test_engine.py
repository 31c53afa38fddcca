from __future__ import annotations

import json
import re
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedprompt.backends.base import GENERATION_TAGS
from fedprompt.backends.mock import MockBackend
from fedprompt.engine import backward, evaluate, forward_response, tgd_step
from fedprompt.errors import EmptyGradient
from fedprompt.templates import Templates, default_templates


def _scripted_backend() -> MockBackend:
    backend = MockBackend()
    backend.add_rule(lambda r: "Answer: 3" if r.tag == "forward" else None)
    backend.add_rule(lambda r: "The response is correct." if r.tag == "evaluation" else None)
    backend.add_rule(
        lambda r: "criticism of the response" if r.tag == "gradient_response" else None
    )
    backend.add_rule(
        lambda r: "This response can be improved by being specific."
        if r.tag == "gradient_prompt"
        else None
    )
    backend.add_rule(lambda r: "UPDATED PROMPT" if r.tag == "tgd_step" else None)
    return backend


PROMPT = "Answer with 'Answer: N'"
QUERY = "2 cars and 1 stove - how many objects?"

PLACEHOLDER_NAMES = ["prompt", "response", "evaluation", "response_feedback", "criticisms", "prompts"]
#: Texts made of braces, every template's placeholders and non-ASCII characters.
TEXTS = st.lists(
    st.one_of(
        st.sampled_from([f"{{{n}}}" for n in PLACEHOLDER_NAMES] + ["{", "}", "{}", "{{prompt}}"]),
        st.text(alphabet="ab {}_\\\né日💡", max_size=6),
    ),
    max_size=6,
).map("".join)


def _reference_fill(template: str, **values: str) -> str:
    """``template`` split at the placeholders of ``values``, each value joined in."""
    pieces = re.split("(" + "|".join(re.escape("{" + k + "}") for k in values) + ")", template)
    return "".join(values[p[1:-1]] if i % 2 else p for i, p in enumerate(pieces))


def _forward_then_evaluate(
    prompt: str, query: str, truth: str, backend: MockBackend
) -> tuple[str, str]:
    """One example's forward pass and judged evaluation, as the runtime chains them."""
    response = forward_response(prompt, query, backend)
    evaluation = evaluate(
        response, truth, default_templates().evaluation_instruction, backend
    )
    return response, evaluation


class TestForward:
    def test_rule_mock_arithmetic(self):
        from fedprompt.backends.rules import counting_rule_backend

        response = forward_response(PROMPT, QUERY, counting_rule_backend())
        assert response.endswith("Answer: 3")

    def test_channels(self):
        backend = _scripted_backend()
        forward_response(PROMPT, QUERY, backend)
        request = backend.call_log.records()[0].request
        assert request.system_text == PROMPT
        assert request.user_text == QUERY

    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError):
            forward_response("", "q", _scripted_backend())

    def test_worked_arithmetic_reasoning(self):
        backend = MockBackend()
        question = (
            "I have a microwave, a table, a bed, a stove, an oven, a toaster, "
            "a lamp, and four cars. How many objects do I have?"
        )
        backend.add(
            "forward",
            question,
            "Counting one of each plus the cars, the total number of objects is "
            "1 + 1 + 1 + 1 + 1 + 1 + 1 + 4 = 11. Answer: 11",
        )
        response = forward_response("count prompt", question, backend)
        assert "1 + 1 + 1 + 1 + 1 + 1 + 1 + 4 = 11" in response


class TestEvaluate:
    def test_scripted_judge_verdicts(self):
        backend = _scripted_backend()
        evaluation = evaluate("Answer: 3", "3", "Judge the response.", backend)
        assert evaluation == "The response is correct."

    def test_judge_input_order(self):
        backend = _scripted_backend()
        evaluate("Answer: 3", "3", "Judge the response.", backend)
        user_text = backend.call_log.records()[0].request.user_text
        assert (
            user_text.index("Answer: 3")
            < user_text.index("Judge the response.")
            < user_text.rindex("3")
        )

    def test_requires_instruction(self):
        with pytest.raises(ValueError):
            evaluate("r", "3", "", _scripted_backend())


class TestForwardTrace:
    def test_call_log_is_exactly_forward_then_evaluation(self):
        backend = _scripted_backend()
        _forward_then_evaluate(PROMPT, QUERY, "3", backend)
        assert backend.call_log.tags() == ["forward", "evaluation"]


class TestBackward:
    def test_two_calls_in_order(self):
        backend = _scripted_backend()
        response, evaluation = _forward_then_evaluate(PROMPT, QUERY, "3", backend)
        backward(PROMPT, response, evaluation, backend)
        assert backend.call_log.tags() == [
            "forward",
            "evaluation",
            "gradient_response",
            "gradient_prompt",
        ]

    def test_returns_the_prompt_criticism_of_the_response_criticism(self):
        backend = _scripted_backend()
        response, evaluation = _forward_then_evaluate(PROMPT, QUERY, "3", backend)
        criticism = backward(PROMPT, response, evaluation, backend)
        assert criticism == "This response can be improved by being specific."
        assert "criticism of the response" in backend.call_log.records()[-1].request.user_text

    def test_one_criticism_per_example(self):
        backend = _scripted_backend()
        criticisms = []
        for _ in range(3):
            response, evaluation = _forward_then_evaluate(PROMPT, QUERY, "3", backend)
            criticisms.append(backward(PROMPT, response, evaluation, backend))
        assert len(criticisms) == 3

    def test_prompt_gradient_phrasing_from_scripted_mock(self):
        backend = _scripted_backend()
        response, evaluation = _forward_then_evaluate(PROMPT, QUERY, "3", backend)
        assert backward(PROMPT, response, evaluation, backend).startswith(
            "This response can be improved by"
        )


class TestTgdStep:
    def test_empty_gradient_rejected(self):
        with pytest.raises(EmptyGradient):
            tgd_step(PROMPT, [], _scripted_backend())

    def test_returns_the_rewritten_prompt(self):
        assert tgd_step(PROMPT, ["do better"], _scripted_backend()) == "UPDATED PROMPT"

    def test_request_instantiates_template(self):
        backend = _scripted_backend()
        tgd_step(PROMPT, ["first criticism", "second criticism"], backend)
        user_text = backend.call_log.records()[-1].request.user_text
        assert "Below are the criticisms on" in user_text
        assert PROMPT in user_text
        assert "Incorporate the criticisms and generate an updated prompt." in user_text

    def test_all_gradients_joined_as_bullets(self):
        backend = _scripted_backend()
        criticisms = ["be brief", "be explicit", "show the answer line"]
        tgd_step(PROMPT, criticisms, backend)
        user_text = backend.call_log.records()[-1].request.user_text
        for criticism in criticisms:
            assert f"- {criticism}" in user_text

    def test_update_depends_only_on_value_and_gradients(self):
        # byte-identical inputs through the mock give byte-identical outputs
        def once() -> str:
            backend = MockBackend()
            backend.add_rule(
                lambda r: f"rewritten({len(r.user_text)})" if r.tag == "tgd_step" else None
            )
            return tgd_step("same prompt", ["same gradient"], backend)

        assert once() == once()


class TestBatchInvariant:
    def test_counts_for_one_batch_step(self):
        backend = _scripted_backend()
        batch = [("query one", "1"), ("query two", "2"), ("query three", "3")]
        criticisms = []
        for question, truth in batch:
            response, evaluation = _forward_then_evaluate(PROMPT, question, truth, backend)
            criticisms.append(backward(PROMPT, response, evaluation, backend))
        tgd_step(PROMPT, criticisms, backend)
        counts = backend.call_log.counts_by_tag()
        assert counts["forward"] == 3
        assert counts["evaluation"] == 3
        assert counts["gradient_response"] == 3
        assert counts["gradient_prompt"] == 3
        assert counts["tgd_step"] == 1
        assert set(GENERATION_TAGS) >= set(counts)


class TestRequestTexts:
    @settings(max_examples=150, deadline=None)
    @given(
        prompt=TEXTS, response=TEXTS, evaluation=TEXTS, truth=TEXTS, feedback=TEXTS,
        criticisms=st.lists(TEXTS, min_size=1, max_size=4),
    )
    def test_each_request_is_its_template_with_the_values_joined_in(
        self, prompt, response, evaluation, truth, feedback, criticisms
    ):
        templates = default_templates()
        backend = MockBackend()
        backend.add_rule(lambda r: feedback if r.tag == "gradient_response" else "reply")
        evaluate(response, truth, templates.evaluation_instruction, backend)
        backward(prompt, response, evaluation, backend, templates)
        tgd_step(prompt, criticisms, backend, templates)
        assert [r.request.user_text for r in backend.call_log.records()] == [
            "\n\n".join([response, templates.evaluation_instruction, truth]),
            _reference_fill(templates.gradient_response_template, response=response, evaluation=evaluation),
            _reference_fill(
                templates.gradient_prompt_template, prompt=prompt, response=response, response_feedback=feedback
            ),
            _reference_fill(templates.tgd_template, prompt=prompt, criticisms="\n".join(f"- {c}" for c in criticisms)),
        ]


class TestTemplates:
    def test_default_templates_carry_all_keys(self):
        templates = default_templates()
        assert "Below are the criticisms on" in templates.tgd_template
        assert "{prompts}" in templates.summarize_template

    def test_template_file_missing_key_rejected(self, tmp_path):
        from fedprompt.errors import ConfigError

        path = tmp_path / "templates.json"
        path.write_text("{}")
        with pytest.raises(ConfigError):
            Templates.from_file(path)

    @pytest.mark.parametrize(
        "content, problem",
        [
            ("5", "needs a JSON object with string keys " + ", ".join(asdict(default_templates()))),
            ("null", "needs a JSON object with string keys " + ", ".join(asdict(default_templates()))),
            ("[]", "needs a JSON object with string keys " + ", ".join(asdict(default_templates()))),
            ("{]", "not valid JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
            ({"tgd_template": 5}, "needs a JSON object with string keys tgd_template"),
            ({"summarize_template": []}, "needs a JSON object with string keys summarize_template"),
        ],
    )
    def test_a_template_file_of_the_wrong_shape_is_an_error_naming_it(self, tmp_path, content, problem):
        from fedprompt.errors import ConfigError

        if isinstance(content, dict):  # keys of the bundled templates replaced
            content = json.dumps({**asdict(default_templates()), **content})
        path = tmp_path / "templates.json"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(ConfigError) as excinfo:
            Templates.from_file(path)
        assert str(excinfo.value) == f"template file {path}: {problem}"

    def test_tgd_template_anchor_enforced(self):
        from dataclasses import asdict

        from fedprompt.errors import ConfigError

        good = asdict(default_templates())
        bad = dict(good, tgd_template="Rewrite {prompt} using {criticisms}.")
        with pytest.raises(ConfigError):
            Templates.from_dict(bad)

    def test_fill_survives_braces_in_values(self):
        from fedprompt.templates import fill

        out = fill("start {prompt} end", prompt="text with {braces} inside")
        assert out == "start text with {braces} inside end"

    def test_fill_never_substitutes_into_inserted_text(self):
        from fedprompt.templates import fill

        out = fill("P={prompt} R={response}", prompt="use {response} here", response="RESP")
        assert out == "P=use {response} here R=RESP"

    @pytest.mark.parametrize(
        "key, placeholder",
        [
            ("gradient_response_template", "{response}"),
            ("gradient_response_template", "{evaluation}"),
            ("gradient_prompt_template", "{prompt}"),
            ("gradient_prompt_template", "{response}"),
            ("gradient_prompt_template", "{response_feedback}"),
            ("tgd_template", "{prompt}"),
            ("tgd_template", "{criticisms}"),
            ("summarize_template", "{prompts}"),
            ("summarize_uid_template", "{prompts}"),
        ],
    )
    def test_a_template_missing_a_placeholder_is_an_error_naming_both(self, key, placeholder):
        from fedprompt.errors import ConfigError

        good = asdict(default_templates())
        bad = dict(good, **{key: good[key].replace(placeholder, "")})
        with pytest.raises(ConfigError) as excinfo:
            Templates.from_dict(bad)
        assert str(excinfo.value) == f"template file <dict>: {key} must contain the placeholder {placeholder}"
