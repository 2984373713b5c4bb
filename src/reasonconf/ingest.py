"""JSONL ingestion of sampled reasoning paths and result export.

One record per line:

    {"problem_id": "p1", "text": "...", "token_logprobs": [-0.4, -1.2],
     "answer": "42", "class_id": 3, "ext_score": 0.8}

``class_id`` and ``ext_score`` are optional; ``ext_score`` is validated
and then ignored.  Each line becomes its path as it is read: the token
log-probs are summed once and the probability derived in the configured
mode.  Paths are grouped into batches by problem id in file order.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import re
from typing import Dict, List, NamedTuple, Sequence, Tuple

from .errors import InvalidPathError, ParseError, ReasonConfError
from .paths import (
    ProbMode,
    ReasoningPath,
    SampleBatch,
    canonicalize_answer,
    make_path,
)

logger = logging.getLogger(__name__)

_REQUIRED_KEYS = ("problem_id", "text", "token_logprobs", "answer")
_OPTIONAL_KEYS = ("class_id", "ext_score")
# Exact types, so JSON true/false (a bool is an int subclass) are rejected.
_NUMBER_TYPES = frozenset((int, float))
# A byte that is not UTF-8, as the ``surrogateescape`` error handler reads it.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def parse_record(obj: dict, line_no: int, mode: ProbMode) -> Tuple[str, ReasoningPath]:
    """Validate one decoded JSONL object into its problem id and path.

    The token log-probs are summed exactly (``-inf`` when the sum lies
    past the float range) and the path probability derived in ``mode``.
    """
    if not isinstance(obj, dict):
        raise ParseError(line_no, "record is not a JSON object")
    for key in _REQUIRED_KEYS:
        if key not in obj:
            raise ParseError(line_no, f"missing required field {key!r}")
    unknown = set(obj) - set(_REQUIRED_KEYS) - set(_OPTIONAL_KEYS)
    if unknown:
        raise ParseError(line_no, f"unknown fields {sorted(unknown)}")
    for key in ("problem_id", "text"):
        if not isinstance(obj[key], str):
            raise ParseError(line_no, f"{key} {obj[key]!r} is not a string")

    logprobs = obj["token_logprobs"]
    if not isinstance(logprobs, list) or len(logprobs) == 0:
        raise ParseError(line_no, "token_logprobs must be a non-empty array")
    logprob_sum = math.nan
    try:
        # NaN or an infinity makes the sum non-finite (inf + -inf raises
        # ValueError); an int past the float range raises OverflowError, and
        # so does a sum past it, which valid tokens can reach.
        if set(map(type, logprobs)) <= _NUMBER_TYPES and max(logprobs) <= 0:
            logprob_sum = math.fsum(logprobs)
    except (ValueError, OverflowError):
        pass
    if not math.isfinite(logprob_sum):
        bad = [v for v in logprobs if not _is_logprob(v)]
        if bad:
            raise ParseError(line_no, f"token log-prob {bad[0]!r} is not a finite number <= 0")
        # Every token is valid, so only their sum is past the float range.
        logprob_sum = -math.inf

    answer = obj["answer"]
    if not isinstance(answer, str) or not answer.strip():
        raise ParseError(line_no, "answer must be a non-empty string")

    class_id = obj.get("class_id")
    if class_id is not None and type(class_id) is not int:
        raise ParseError(line_no, f"class_id {class_id!r} is not an integer")
    ext_score = obj.get("ext_score")
    if ext_score is not None and (
        type(ext_score) not in _NUMBER_TYPES or not (0.0 <= ext_score <= 1.0)
    ):
        raise ParseError(line_no, f"ext_score {ext_score!r} outside [0, 1]")

    try:
        label = canonicalize_answer(answer, class_id)
    except InvalidPathError as exc:
        raise ParseError(line_no, str(exc)) from None
    path = make_path(obj["text"], logprob_sum, len(logprobs), label, mode)
    return obj["problem_id"], path


def _is_logprob(value) -> bool:
    """A non-bool int or float that is a finite float <= 0."""
    try:
        finite = type(value) in _NUMBER_TYPES and math.isfinite(float(value))
        return finite and value <= 0
    except OverflowError:
        return False


def load_jsonl(
    path: str, mode: ProbMode, strict: bool = True
) -> Dict[str, SampleBatch]:
    """Read a JSONL file into one batch per problem, in file order.

    A problem's records must all carry ``class_id`` or all omit it, as
    its first valid line does, and each line must be valid UTF-8.  In
    strict mode any malformed line aborts the run with a combined message;
    in lenient mode malformed lines are skipped with a warning that gives
    their count and first line numbers.
    """
    grouped: Dict[str, List[ReasoningPath]] = {}
    has_class: Dict[str, bool] = {}
    problems: List[ParseError] = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                if not line.isascii() and _ESCAPED_BYTE.search(line):
                    raise ParseError(line_no, "line is not valid UTF-8")
                try:
                    obj = json.loads(line)
                except ValueError as exc:
                    # JSONDecodeError, or an integer past Python's digit limit.
                    detail = getattr(exc, "msg", str(exc))
                    raise ParseError(line_no, f"invalid JSON: {detail}") from None
                problem_id, parsed = parse_record(obj, line_no, mode)
                carries = parsed.answer.class_id is not None
                if has_class.setdefault(problem_id, carries) != carries:
                    raise ParseError(
                        line_no,
                        f"problem {problem_id!r} mixes records with and without "
                        "class_id; answer comparison would be ambiguous",
                    )
            except ParseError as exc:
                problems.append(exc)
                continue
            grouped.setdefault(problem_id, []).append(parsed)
    if problems and strict:
        details = "; ".join(str(p) for p in problems)
        raise ReasonConfError(f"{len(problems)} malformed line(s): {details}")
    if problems:
        first = ", ".join(str(p.line_no) for p in problems[:5])
        msg = "skipped %d malformed line(s) of %s, first at line(s) %s"
        logger.warning(msg, len(problems), path, first)
    return {
        pid: SampleBatch(paths=tuple(paths), problem_id=pid)
        for pid, paths in grouped.items()
    }


def read_json_document(path: str, kind: str):
    """Decode one JSON file; a decode ``ValueError`` becomes a ReasonConfError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ReasonConfError(f"malformed {kind} document: {exc}") from None


class ResultRow(NamedTuple):
    """One scored selection, the unit of CSV/JSON export; its fields are the columns."""

    problem_id: str
    method: str
    n: int
    selected_answer: str
    confidence: float
    correct: bool


def render_csv(header: Sequence[str], rows: Sequence[tuple], trailer=()) -> str:
    """CSV, floats by ``repr`` and booleans as true/false, then ``trailer``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    text = buf.getvalue()
    for line in trailer:
        text += line + "\n"
    return text


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_results(rows: Sequence[ResultRow], format: str) -> str:
    """Deterministic text rendering; identical inputs give identical bytes."""
    if format == "csv":
        return render_csv(ResultRow._fields, rows)
    if format == "json":
        return json.dumps([row._asdict() for row in rows], indent=2) + "\n"
    raise ReasonConfError(f"unknown export format {format!r}")
