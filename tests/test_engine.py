from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from fedprompt.backends.base import GENERATION_TAGS
from fedprompt.backends.mock import MockBackend
from fedprompt.engine import Variable, backward, evaluate, forward_response, tgd_step
from fedprompt.errors import EmptyGradient, GraphNotEvaluated
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


def _vars() -> tuple[Variable, Variable]:
    prompt = Variable(
        "Answer with 'Answer: N'", "system prompt for reasoning task", requires_grad=True
    )
    query = Variable("2 cars and 1 stove - how many objects?", "query to be answered")
    return prompt, query


def _forward_then_evaluate(
    prompt: Variable, query: Variable, truth: str, backend: MockBackend
) -> tuple[Variable, Variable]:
    """One example's forward pass and judged evaluation, as the runtime chains them."""
    response = forward_response(prompt, query, backend)
    evaluation = evaluate(
        response, truth, default_templates().evaluation_instruction, backend
    )
    return response, evaluation


class TestForward:
    def test_rule_mock_arithmetic(self):
        from fedprompt.backends.rules import counting_rule_backend

        prompt, query = _vars()
        response = forward_response(prompt, query, counting_rule_backend())
        assert response.value.endswith("Answer: 3")

    def test_predecessors_are_prompt_and_query(self):
        prompt, query = _vars()
        response = forward_response(prompt, query, _scripted_backend())
        assert response.predecessors == [prompt, query]

    def test_channels(self):
        prompt, query = _vars()
        backend = _scripted_backend()
        forward_response(prompt, query, backend)
        request = backend.call_log.records()[0].request
        assert request.system_text == prompt.value
        assert request.user_text == query.value

    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError):
            forward_response(Variable(""), Variable("q"), _scripted_backend())

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
        response = forward_response(
            Variable("count prompt", requires_grad=True), Variable(question), backend
        )
        assert "1 + 1 + 1 + 1 + 1 + 1 + 1 + 4 = 11" in response.value


class TestEvaluate:
    def test_scripted_judge_verdicts(self):
        backend = _scripted_backend()
        response = Variable("Answer: 3", requires_grad=True)
        evaluation = evaluate(response, "3", "Judge the response.", backend)
        assert evaluation.value == "The response is correct."

    def test_predecessor_is_response(self):
        response = Variable("Answer: 3", requires_grad=True)
        evaluation = evaluate(response, "3", "Judge.", _scripted_backend())
        assert evaluation.predecessors == [response]

    def test_judge_input_order(self):
        backend = _scripted_backend()
        response = Variable("Answer: 3", requires_grad=True)
        evaluate(response, "3", "Judge the response.", backend)
        user_text = backend.call_log.records()[0].request.user_text
        assert (
            user_text.index("Answer: 3")
            < user_text.index("Judge the response.")
            < user_text.rindex("3")
        )

    def test_requires_instruction(self):
        with pytest.raises(ValueError):
            evaluate(Variable("r"), "3", "", _scripted_backend())


class TestForwardTrace:
    def test_call_log_is_exactly_forward_then_evaluation(self):
        prompt, query = _vars()
        backend = _scripted_backend()
        _forward_then_evaluate(prompt, query, "3", backend)
        assert backend.call_log.tags() == ["forward", "evaluation"]

    def test_trace_wires_variables(self):
        prompt, query = _vars()
        response, evaluation = _forward_then_evaluate(prompt, query, "3", _scripted_backend())
        assert response.predecessors == [prompt, query]
        assert evaluation.predecessors == [response]


class TestBackward:
    def test_two_calls_in_order(self):
        backend = _scripted_backend()
        prompt, query = _vars()
        _, evaluation = _forward_then_evaluate(prompt, query, "3", backend)
        backward(evaluation, backend)
        assert backend.call_log.tags() == [
            "forward",
            "evaluation",
            "gradient_response",
            "gradient_prompt",
        ]

    def test_gradients_append_to_response_and_prompt(self):
        backend = _scripted_backend()
        prompt, query = _vars()
        response, evaluation = _forward_then_evaluate(prompt, query, "3", backend)
        backward(evaluation, backend)
        assert response.gradients == ["criticism of the response"]
        assert prompt.gradients == ["This response can be improved by being specific."]

    def test_one_gradient_per_example(self):
        backend = _scripted_backend()
        prompt, query = _vars()
        for _ in range(3):
            _, evaluation = _forward_then_evaluate(prompt, query, "3", backend)
            backward(evaluation, backend)
        assert len(prompt.gradients) == 3

    def test_frozen_variables_stay_clean(self):
        backend = _scripted_backend()
        prompt, query = _vars()
        _, evaluation = _forward_then_evaluate(prompt, query, "3", backend)
        backward(evaluation, backend)
        assert query.gradients == []
        assert query.requires_grad is False

    def test_prompt_gradient_phrasing_from_scripted_mock(self):
        backend = _scripted_backend()
        prompt, query = _vars()
        _, evaluation = _forward_then_evaluate(prompt, query, "3", backend)
        backward(evaluation, backend)
        assert prompt.gradients[0].startswith("This response can be improved by")

    def test_unevaluated_graph_rejected(self):
        with pytest.raises(GraphNotEvaluated):
            backward(Variable("loose evaluation"), _scripted_backend())

    def test_response_without_prompt_rejected(self):
        orphan = Variable("evaluation", predecessors=[Variable("response")])
        with pytest.raises(GraphNotEvaluated):
            backward(orphan, _scripted_backend())


class TestTgdStep:
    def _prompt_with_gradients(self, gradients: list[str]) -> Variable:
        prompt, _ = _vars()
        prompt.gradients = list(gradients)
        return prompt

    def test_empty_gradient_rejected(self):
        with pytest.raises(EmptyGradient):
            tgd_step(self._prompt_with_gradients([]), _scripted_backend())

    def test_returns_fresh_variable_with_parent_link(self):
        prompt = self._prompt_with_gradients(["do better"])
        updated = tgd_step(prompt, _scripted_backend())
        assert updated.value == "UPDATED PROMPT"
        assert updated.gradients == []
        assert updated.predecessors == [prompt]
        assert updated.requires_grad is True

    def test_request_instantiates_template(self):
        backend = _scripted_backend()
        prompt = self._prompt_with_gradients(["first criticism", "second criticism"])
        tgd_step(prompt, backend)
        user_text = backend.call_log.records()[-1].request.user_text
        assert "Below are the criticisms on" in user_text
        assert prompt.value in user_text
        assert "Incorporate the criticisms and generate an updated prompt." in user_text

    def test_all_gradients_joined_as_bullets(self):
        backend = _scripted_backend()
        criticisms = ["be brief", "be explicit", "show the answer line"]
        prompt = self._prompt_with_gradients(criticisms)
        tgd_step(prompt, backend)
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
            prompt = Variable("same prompt", requires_grad=True, gradients=["same gradient"])
            return tgd_step(prompt, backend).value

        assert once() == once()


class TestBatchInvariant:
    def test_counts_for_one_batch_step(self):
        backend = _scripted_backend()
        prompt, _ = _vars()
        batch = [("query one", "1"), ("query two", "2"), ("query three", "3")]
        for question, truth in batch:
            _, evaluation = _forward_then_evaluate(prompt, Variable(question), truth, backend)
            backward(evaluation, backend)
        tgd_step(prompt, backend)
        counts = backend.call_log.counts_by_tag()
        assert counts["forward"] == 3
        assert counts["evaluation"] == 3
        assert counts["gradient_response"] == 3
        assert counts["gradient_prompt"] == 3
        assert counts["tgd_step"] == 1
        assert set(GENERATION_TAGS) >= set(counts)


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
