from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedprompt.backends.mock import MockBackend
from fedprompt.errors import DuplicateId, ExtractionFailure, ParseError, TooManyClients
from fedprompt.tasks import (
    _ANSWER_RE,
    TaskExample,
    _exact_sizes,
    build_federated_data,
    extract_answer,
    load_dataset,
    normalize_answer,
    partition_homogeneous,
    score,
    split_dataset,
)
from tests.conftest import make_counting_rows, make_examples, write_jsonl


class TestLoadDataset:
    def test_question_answer_keys(self, tmp_path):
        path = write_jsonl(tmp_path / "t.jsonl", make_counting_rows(3))
        examples = load_dataset(path)
        assert [ex.id for ex in examples] == ["t:1", "t:2", "t:3"]
        assert examples[0].answer == "5"
        assert examples[0].task_name == "t"

    def test_input_target_synonyms(self, tmp_path):
        rows = [{"input": "2 pens and 1 mug?", "target": "3"}]
        examples = load_dataset(write_jsonl(tmp_path / "syn.jsonl", rows))
        assert examples[0].question == "2 pens and 1 mug?"
        assert examples[0].answer == "3"

    def test_final_answer_marker_reduced(self, tmp_path):
        rows = [
            {"id": "g:1", "question": "q", "answer": "Work it out.\n#### 42"},
            {"id": "g:2", "question": "q", "answer": "step #### wrong #### 1,234"},
        ]
        examples = load_dataset(write_jsonl(tmp_path / "g.jsonl", rows))
        assert examples[0].answer == "42"
        assert examples[1].answer == "1234"

    def test_missing_ids_use_line_numbers(self, tmp_path):
        path = tmp_path / "lines.jsonl"
        path.write_text(
            '{"question": "a?", "answer": "1"}\n'
            "\n"
            '{"question": "b?", "answer": "2"}\n',
            encoding="utf-8",
        )
        examples = load_dataset(path)
        assert [ex.id for ex in examples] == ["lines:1", "lines:3"]

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"question": "a?", "answer": "1"}\nnot json\n', encoding="utf-8")
        with pytest.raises(ParseError) as excinfo:
            load_dataset(path)
        assert str(excinfo.value).startswith(f"dataset file {path} line 2: not valid JSON: ")

    def test_non_object_line_rejected(self, tmp_path):
        path = tmp_path / "arr.jsonl"
        path.write_text("[1, 2]\n", encoding="utf-8")
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_missing_fields_rejected(self, tmp_path):
        path = write_jsonl(tmp_path / "m.jsonl", [{"question": "only q"}])
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_blank_answer_rejected(self, tmp_path):
        path = write_jsonl(tmp_path / "b.jsonl", [{"question": "q", "answer": "   "}])
        with pytest.raises(ParseError):
            load_dataset(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        rows = [
            {"id": "dup", "question": "a?", "answer": "1"},
            {"id": "dup", "question": "b?", "answer": "2"},
        ]
        with pytest.raises(DuplicateId):
            load_dataset(write_jsonl(tmp_path / "d.jsonl", rows))

    def test_empty_file_loads_nothing(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert load_dataset(path) == []


class TestSplits:
    def test_default_ratios_on_ten(self):
        splits = split_dataset(make_examples(10), seed=3)
        assert [len(splits[k]) for k in ("train", "val", "test")] == [6, 2, 2]

    def test_same_seed_same_split(self):
        first = split_dataset(make_examples(20), seed=5)
        second = split_dataset(make_examples(20), seed=5)
        for name in ("train", "val", "test"):
            assert [ex.id for ex in first[name]] == [ex.id for ex in second[name]]

    def test_different_seed_different_order(self):
        first = split_dataset(make_examples(20), seed=5)
        second = split_dataset(make_examples(20), seed=6)
        assert [ex.id for ex in first["train"]] != [ex.id for ex in second["train"]]

    def test_leftover_goes_to_largest_remainder_earliest_on_tie(self):
        # n=7: raw sizes 4.2/1.4/1.4 floor to 4/1/1; the one leftover item
        # breaks the val/test remainder tie toward val.
        assert _exact_sizes(7, (0.6, 0.2, 0.2)) == [4, 2, 1]
        assert _exact_sizes(10, (0.5, 0.25, 0.25)) == [5, 3, 2]

    def test_bad_ratios_rejected(self):
        with pytest.raises(ValueError):
            _exact_sizes(10, (0.6, 0.2, 0.1))
        with pytest.raises(ValueError):
            _exact_sizes(10, (1.2, -0.1, -0.1))

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(min_value=3, max_value=80), seed=st.integers(0, 10**6))
    def test_split_is_disjoint_cover(self, n, seed):
        examples = make_examples(n)
        splits = split_dataset(examples, seed=seed)
        ids = [ex.id for name in ("train", "val", "test") for ex in splits[name]]
        assert len(ids) == n
        assert set(ids) == {ex.id for ex in examples}


class TestPartitions:
    def test_equal_shares(self):
        train = make_examples(12)
        assignments = partition_homogeneous(train, 3, seed=0)
        assert sorted(len(ids) for ids in assignments.values()) == [4, 4, 4]

    def test_imbalance_at_most_one(self):
        train = make_examples(13)
        assignments = partition_homogeneous(train, 3, seed=0)
        sizes = sorted(len(ids) for ids in assignments.values())
        assert sizes == [4, 4, 5]

    def test_disjoint_cover(self):
        train = make_examples(11)
        assignments = partition_homogeneous(train, 4, seed=2)
        ids = [i for ids in assignments.values() for i in ids]
        assert len(ids) == 11
        assert set(ids) == {ex.id for ex in train}

    def test_deterministic_by_seed(self):
        train = make_examples(10)
        assert partition_homogeneous(train, 3, seed=9) == partition_homogeneous(train, 3, seed=9)

    def test_more_clients_than_examples_rejected(self):
        with pytest.raises(TooManyClients):
            partition_homogeneous(make_examples(5), 6, seed=0)

    def test_manifest_shape(self):
        assert set(partition_homogeneous(make_examples(4), 2, seed=0)) == {0, 1}


class TestBuildFederatedData:
    def test_homogeneous_pipeline(self):
        data = build_federated_data(make_examples(20), 4, seed=1)
        assert len(data.train) == 12
        assert len(data.val) == 4
        assert len(data.test) == 4
        covered = sorted(i for c in range(4) for i in (ex.id for ex in data.client_examples(c)))
        assert covered == sorted(ex.id for ex in data.train)

    def test_heterogeneous_purity(self):
        examples = []
        for task in ("alpha", "beta"):
            rows = make_examples(10, task_name=task)
            for ex in rows:
                ex.id = f"{task}:{ex.id}"
            examples += rows
        data = build_federated_data(examples, 2, seed=1, heterogeneous=True)
        assert {ex.task_name for ex in data.client_examples(0)} == {"alpha"}
        assert {ex.task_name for ex in data.client_examples(1)} == {"beta"}
        # validation and test stay pooled across tasks at the server
        assert {ex.task_name for ex in data.val} == {"alpha", "beta"}

    def test_heterogeneous_clients_follow_task_order(self):
        examples = make_examples(6, task_name="zoo") + make_examples(6, task_name="arith")
        for ex in examples:
            ex.id = f"{ex.task_name}:{ex.id}"
        for seed in range(4):
            data = build_federated_data(examples, 2, seed=seed, heterogeneous=True)
            assert {ex.task_name for ex in data.client_examples(0)} == {"arith"}
            assert {ex.task_name for ex in data.client_examples(1)} == {"zoo"}

    # mode: (client 0 ids, client 1 ids, train, val, test)
    GOLDEN_SPLITS = {
        False: (
            ["arith:t:1", "arith:t:6", "arith:t:5", "zoo:t:5"],
            ["zoo:t:3", "arith:t:4", "arith:t:2"],
            ["arith:t:5", "zoo:t:5", "arith:t:4", "arith:t:6", "zoo:t:3", "arith:t:2", "arith:t:1"],
            ["arith:t:3", "zoo:t:1"],
            ["zoo:t:4", "zoo:t:2"],
        ),
        True: (  # clients follow task-name order; val and test pool the tasks in that order
            ["arith:t:4", "arith:t:3", "arith:t:5", "arith:t:6"],
            ["zoo:t:3", "zoo:t:4", "zoo:t:5"],
            ["arith:t:4", "arith:t:3", "arith:t:5", "arith:t:6", "zoo:t:3", "zoo:t:4", "zoo:t:5"],
            ["arith:t:2", "zoo:t:2"],
            ["arith:t:1", "zoo:t:1"],
        ),
    }

    @pytest.mark.parametrize("heterogeneous", [False, True])
    def test_golden_split_of_two_tasks_out_of_name_order(self, heterogeneous):
        examples = []
        for task, n in (("zoo", 5), ("arith", 6)):  # rows arrive out of task-name order
            rows = make_examples(n, task_name=task)
            for ex in rows:
                ex.id = f"{task}:{ex.id}"
            examples += rows
        data = build_federated_data(examples, 2, seed=1, heterogeneous=heterogeneous)
        got = (
            *([ex.id for ex in data.client_examples(cid)] for cid in (0, 1)),
            *([ex.id for ex in split] for split in (data.train, data.val, data.test)),
        )
        assert got == self.GOLDEN_SPLITS[heterogeneous]

    def test_heterogeneous_needs_one_task_per_client(self):
        with pytest.raises(TooManyClients):
            build_federated_data(make_examples(10, task_name="solo"), 2, heterogeneous=True)


# Frozen answer-extraction cases: one response text per accepted surface form.
EXTRACTION_CASES = [
    ("Answer: 11", "11"),
    ("answer: 11", "11"),
    ("ANSWER: 11", "11"),
    ("Answer:11", "11"),
    ("Answer  :  11", "11"),
    ("Answer: 11.", "11"),
    ("Answer: **11**", "11"),
    ("Answer: *11*", "11"),
    ("Answer: `11`", "11"),
    ("Answer: $11", "11"),
    ("Answer: 1,100", "1100"),
    ("Answer: 11.0", "11"),
    ("Answer: 011", "11"),
    ("Answer: 11   ", "11"),
    ("First I add the items.\nAnswer: 11", "11"),
    ("Answer: 10\nAnswer: 11", "11"),
    ("Answer: -4", "-4"),
    ("Answer: 2.5", "2.5"),
    ("Answer: $1,234.", "1234"),
    ("so the\nanswer : **11.**", "11"),
]


def _extract_forward(response_text: str) -> str:
    """Reference: scan every line from the first and keep the last match."""
    found = None
    for line in response_text.splitlines():
        match = _ANSWER_RE.search(line)
        if match:
            found = match.group(1)
    if found is None:
        raise ExtractionFailure("no 'Answer: VALUE' line in response")
    return normalize_answer(found)


def _outcome(extract, text: str) -> str | None:
    try:
        return extract(text)
    except ExtractionFailure:
        return None


_VALUES = st.builds(
    "{}{}{}{}".format,
    st.sampled_from(["", "*", "**", "`", "_", "$"]),
    st.one_of(st.integers(-10**6, 10**6).map(str), st.text(alphabet="0123456789.,- x", max_size=8)),
    st.sampled_from(["", ".", "**", "*.", "`", "  "]),
    st.sampled_from(["", "\r"]),
)
_LINES = st.one_of(
    st.builds("{}{}{}".format, st.sampled_from(["Answer:", "answer :", "ANSWER  :", "Final answer:"]),
              st.sampled_from(["", " ", "  "]), _VALUES),
    st.text(alphabet="abc Answer:\t.*1", max_size=20),
    st.just(""),
)


class TestExtraction:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_LINES, max_size=8), st.sampled_from(["\n", "\r\n", "\n\n"]))
    def test_backward_scan_equals_the_forward_scan(self, lines, newline):
        text = newline.join(lines)
        assert _outcome(extract_answer, text) == _outcome(_extract_forward, text)

    @pytest.mark.parametrize("text,expected", EXTRACTION_CASES)
    def test_accepted_variants(self, text, expected):
        assert extract_answer(text) == expected

    def test_no_answer_line_raises(self):
        with pytest.raises(ExtractionFailure):
            extract_answer("the total is 11")

    def test_wide_integers_stay_exact(self):
        wide = "123456789012345678901"
        assert extract_answer(f"Answer: {wide}") == wide

    def test_normalization_canonical_decimals(self):
        assert normalize_answer("2.50") == "2.5"
        assert normalize_answer("-0") == "0"
        assert normalize_answer("three") == "three"

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet="0123456789.,$*-_` azZ", max_size=12))
    def test_normalization_idempotent(self, value):
        once = normalize_answer(value)
        assert normalize_answer(once) == once


class TestScore:
    def test_rule_backend_is_perfect(self, rule_backend):
        report = score("Count the items.", make_examples(6), rule_backend)
        assert report.accuracy == 1.0
        assert report.correct == 6
        assert report.parse_failures == 0

    def test_wrong_expected_counts_against(self, rule_backend):
        examples = make_examples(3)
        examples[1].answer = "999"
        report = score("Count the items.", examples, rule_backend)
        assert report.correct == 2
        assert report.accuracy == pytest.approx(2 / 3)

    def test_unparseable_responses_score_zero(self):
        backend = MockBackend()
        backend.add_rule(lambda r: "I refuse to answer in the format.")
        report = score("p", make_examples(4), backend)
        assert report.accuracy == 0.0
        assert report.parse_failures == 4

    def test_order_invariant_accuracy(self, rule_backend):
        examples = make_examples(9)
        examples[0].answer = "999"
        forward = score("p", examples, rule_backend).accuracy
        backward = score("p", list(reversed(examples)), rule_backend).accuracy
        assert forward == backward

    def test_fifty_example_formatting(self, rule_backend):
        examples = make_examples(50)
        for ex in examples[:7]:
            ex.answer = "999"
        report = score("p", examples, rule_backend)
        assert report.accuracy == pytest.approx(0.86)
        assert f"{report.accuracy:.2f}" == "0.86"

    def test_requests_are_greedy_and_tagged(self):
        backend = MockBackend()
        backend.add_rule(lambda r: "Answer: 5")
        score("p", make_examples(2), backend, metadata={"phase": "validation"})
        for record in backend.call_log.records():
            assert record.request.tag == "forward"
            assert record.request.temperature == 0.0
            assert record.request.metadata["phase"] == "validation"
            assert record.request.metadata["example_id"].startswith("t:")

    def test_empty_examples_rejected(self, rule_backend):
        with pytest.raises(ValueError):
            score("p", [], rule_backend)
