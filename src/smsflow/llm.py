"""Language-model agents: structured SMS extraction and cross-judging.

Two interchangeable backends that only read text sit behind one interface:
a deterministic scripted model used by the test harness, and an HTTP
chat-completion adapter for real deployments.  :class:`LlmAgent` applies
the seeded :class:`FaultPlan` to every model's extraction, so hallucination
handling can be reproduced exactly.  :func:`model_results` runs one stage's
model calls, one after the other or overlapped on an executor.

A scripted model caches its reading of each distinct text, which serves
both its extractions and its judgements, and its score of each distinct
reading and complaint and request items, each bounded by
``READING_MEMO_SIZE``; the caches live and die with the model.  The HTTP
adapter caches nothing: a retry must ask the backend again.
"""
from __future__ import annotations

import functools
import json
import logging
import random
import re
from concurrent.futures import Executor
from dataclasses import dataclass
from typing import NamedTuple

from .messages import (
    AGENTS_TOPIC,
    STEP_LLM_EXTRACTED,
    STEP_LLM_REQUESTED,
    LlmExtraction,
    restamped,
)
from .pool import Envelope, MessagePool
from .renewal import (
    READING_MEMO_SIZE, KeywordLexicon, normalize_item, sentence_tokens, split_sentences, tokens_of,
)
from .store import RunStore

log = logging.getLogger(__name__)


class BackendUnavailableError(RuntimeError):
    """The model backend could not be reached."""


class MalformedOutputError(ValueError):
    """The model reply did not parse as the declared output document."""


MODEL_ERRORS = (BackendUnavailableError, MalformedOutputError)


def _model_result(call, item):
    try:
        return call(item)
    except MODEL_ERRORS as exc:
        return exc


def model_results(call, items: list, executor: Executor | None = None):
    """Yield ``(item, call(item))`` for each item, in order.

    A model error (``MODEL_ERRORS``) is yielded in place of the result; any
    other exception propagates from the item that raised it.  Without an
    executor each call runs when its result is asked for.  With one, every
    call but the first starts on the executor at once and the first runs on
    the calling thread, so the stage waits for its slowest call instead of
    the sum.  Results still come in item order, and the generator does not
    finish, or let an exception out, while a call it started is running.
    """
    if executor is None or len(items) < 2:
        for item in items:
            yield item, _model_result(call, item)
        return
    futures = [executor.submit(_model_result, call, item) for item in items[1:]]
    read = 0
    try:
        yield items[0], _model_result(call, items[0])
        for item, future in zip(items[1:], futures):
            read += 1
            yield item, future.result()
    finally:
        for future in futures[read:]:
            exc = future.exception()  # waits for the call to end
            if exc is not None:
                log.error("model call failed after an earlier one raised: %r", exc)


@dataclass(frozen=True)
class FaultPlan:
    """Seeded schedule of injected extraction faults.

    Draw positions are keyed by (event, model, attempt), so concurrent calls
    and retries land on fixed schedule slots regardless of execution order.
    """

    seed: int = 0
    add_keyword_rate: float = 0.0
    drop_keyword_rate: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.add_keyword_rate <= 1.0 and 0.0 <= self.drop_keyword_rate <= 1.0):
            raise ValueError("fault rates must lie in [0, 1]")

    def draws(self, event_id: str, model_id: str, attempt: int) -> tuple[bool, bool, random.Random]:
        rng = random.Random(f"{self.seed}:{event_id}:{model_id}:{attempt}")
        add_fires = rng.random() < self.add_keyword_rate
        drop_fires = rng.random() < self.drop_keyword_rate
        return add_fires, drop_fires, rng

    def apply(
        self, extraction: LlmExtraction, text: str, lexicon: KeywordLexicon,
        event_id: str, model_id: str, attempt: int,
    ) -> LlmExtraction:
        """Inject this call's faults into ``extraction`` in place and return it.

        The add fault claims the first lexicon canonical whose lowercased form
        is none of the text's tokens; the drop fault then removes one claim.
        """
        if not (self.add_keyword_rate or self.drop_keyword_rate):
            return extraction  # neither fault can fire: draw nothing
        add_fires, drop_fires, rng = self.draws(event_id, model_id, attempt)
        if add_fires:
            tokens = tokens_of(text, lexicon)
            absent = next((c for c in lexicon.polarities if c.lower() not in tokens), None)
            if absent is not None and absent not in extraction.keywords():
                target = extraction.renew if lexicon.polarities[absent] == "renew" else extraction.stop
                target.append(absent)
        if drop_fires:
            claimed = extraction.keywords()
            if claimed:
                victim = claimed[rng.randrange(len(claimed))]
                if victim in extraction.renew:
                    extraction.renew.remove(victim)
                else:
                    extraction.stop.remove(victim)
        return extraction


@dataclass(frozen=True)
class CueConfig:
    """Token cues driving the scripted classifier."""

    complaint: tuple[str, ...] = ("bad", "complaint", "problem", "issue", "wrong", "terrible", "awful")
    request: tuple[str, ...] = ("want", "need", "reserve", "book", "appointment", "schedule")
    mood_positive: tuple[str, ...] = ("thank", "thanks", "great", "good", "appreciate")
    mood_negative: tuple[str, ...] = ("bad", "terrible", "awful", "angry", "unhappy")


def classify_sentence(sentence: str, cues: CueConfig) -> str:
    tokens = {t.lower() for t in sentence_tokens(sentence)}
    if not tokens.isdisjoint(cues.complaint):
        return "complaint"
    if not tokens.isdisjoint(cues.request):
        return "request"
    return "other"


class ScriptedModel:
    """Deterministic stand-in for a chat model.

    Extraction claims every lexicon token it can see, except that word-form
    keywords inside sentences read as complaints or requests are treated as
    part of that sentence rather than as instructions (numeric codes are
    claimed everywhere).  This is intentionally more permissive than the
    parser agent: it also claims keywords from mixed sentences.

    An extraction depends on the text alone (the extraction stage injects
    any faults) and a score on the reading's free text and the judged items,
    so each model reads a distinct text once and scores a distinct pair once
    while each cache holds at most ``READING_MEMO_SIZE`` keys; every
    extraction is a fresh one built from the cached reading, which the stage
    may then alter.
    """

    def __init__(self, model_id: str, cues: CueConfig | None = None):
        self.model_id = model_id
        self.cues = cues or CueConfig()
        # (text, lexicon) -> the reading; see scripted_reading.
        self.reading = functools.lru_cache(maxsize=READING_MEMO_SIZE)(
            functools.partial(scripted_reading, cues=self.cues)
        )
        # (free-text sentences of a reading, complaint and request items) -> the score.
        self.score = functools.lru_cache(maxsize=READING_MEMO_SIZE)(scripted_score)

    def extract(self, sms_text: str, lexicon: KeywordLexicon) -> LlmExtraction:
        reading = self.reading(sms_text, lexicon)
        return LlmExtraction(
            renew=list(reading.renew), stop=list(reading.stop), complaint=list(reading.complaint),
            request=list(reading.request), mood=reading.mood,
        )

    def judge(self, original_sms: str, extraction: LlmExtraction, lexicon: KeywordLexicon) -> int:
        """Coverage score 1..10 for the complaint/request reading; see :func:`scripted_score`."""
        free_text = self.reading(original_sms, lexicon).free_text
        return self.score(free_text, (*extraction.complaint, *extraction.request))


class ScriptedReading(NamedTuple):
    """A scripted model's reading of one text."""

    renew: tuple[str, ...]
    stop: tuple[str, ...]
    complaint: tuple[str, ...]
    request: tuple[str, ...]
    mood: str
    # Normalized sentences not made of lexicon tokens alone: what judge scores against.
    free_text: tuple[str, ...]


def scripted_reading(text: str, lexicon: KeywordLexicon, cues: CueConfig) -> ScriptedReading:
    """The scripted model's reading of one text."""
    renew: list[str] = []
    stop: list[str] = []
    complaint: list[str] = []
    request: list[str] = []
    free_text: list[str] = []
    pos = neg = 0
    for sentence in split_sentences(text, lexicon):
        kind = classify_sentence(sentence, cues)
        all_keywords = True
        for token in sentence_tokens(sentence):
            lowered = token.lower()
            if lowered in cues.mood_positive:
                pos += 1
            if lowered in cues.mood_negative:
                neg += 1
            entry = lexicon.match_token(token)
            if entry is None:
                all_keywords = False
                continue
            if (kind == "other" or entry.canonical.isdigit()) and (
                entry.canonical not in renew and entry.canonical not in stop
            ):
                (renew if entry.polarity == "renew" else stop).append(entry.canonical)
        if kind == "complaint":
            complaint.append(sentence)
        elif kind == "request":
            request.append(sentence)
        if not all_keywords:
            free_text.append(normalize_item(sentence).lower())
    return ScriptedReading(
        renew=tuple(renew),
        stop=tuple(stop),
        complaint=tuple(complaint),
        request=tuple(request),
        mood="positive" if pos > neg else "negative" if neg > pos else "neutral",
        free_text=tuple(free_text),
    )


def scripted_score(sentences: tuple[str, ...], items: tuple[str, ...]) -> int:
    """A scripted judge's coverage score 1..10 for the complaint and request
    ``items`` of a text whose reading has the free-text ``sentences``.

    Starts at 10; each item matching no sentence costs 3, each sentence with
    no matching item costs 2.
    """
    normalized = [normalize_item(i).lower() for i in items]
    fabricated = sum(1 for item in normalized if item not in sentences)
    missed = sum(1 for s in sentences if s not in normalized)
    return max(1, min(10, 10 - 3 * fabricated - 2 * missed))


# A judge reply may name the scale ("1 to 10", "1-10") or a denominator
# ("/10", "out of 10"); neither is the score.
_SCORE_SCALE = re.compile(r"\b1\s*(?:to|-|\u2013)\s*10\b|/\s*10\b|\bout\s+of\s+10\b", re.IGNORECASE)
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?")
_FENCE = re.compile(r"```(?:json)?\s*(.*?)```", re.DOTALL)


class ChatCompletionModel:
    """Adapter for chat-completion style HTTP backends.

    Excluded from the acceptance harness (live output is nondeterministic);
    the transport is injectable, which is how the parsing and reprompt logic
    are tested.
    """

    def __init__(
        self,
        model_id: str,
        endpoint: str,
        model_name: str,
        api_key: str = "",
        timeout: float = 30.0,
        transport=None,
    ):
        self.model_id = model_id
        self.endpoint = endpoint
        self.model_name = model_name
        self.api_key = api_key
        self.timeout = timeout
        self._transport = transport or self._http_transport

    def _http_transport(self, body: dict) -> str:
        # Imported here: it pulls in http.client, email and ssl, which a
        # pipeline on scripted models or an injected transport never needs.
        import urllib.request

        request = urllib.request.Request(
            self.endpoint,
            data=json.dumps(body).encode("utf-8"),
            headers={
                "Content-Type": "application/json",
                **({"Authorization": f"Bearer {self.api_key}"} if self.api_key else {}),
            },
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                payload = json.loads(resp.read().decode("utf-8"))
        except Exception as exc:  # noqa: BLE001 - network edge
            raise BackendUnavailableError(str(exc)) from exc
        try:
            return payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise MalformedOutputError(f"unexpected completion payload: {payload!r}") from exc

    def _complete(self, prompt: str) -> str:
        return self._transport(
            {
                "model": self.model_name,
                "messages": [{"role": "user", "content": prompt}],
                "temperature": 0,
            }
        )

    def extract(self, sms_text: str, lexicon: KeywordLexicon) -> LlmExtraction:
        prompt = self._extraction_prompt(sms_text, lexicon)
        reply = self._complete(prompt)
        try:
            return self._parse_extraction(reply)
        except MalformedOutputError:
            reply = self._complete(prompt + "\n\nReturn only the JSON document, nothing else.")
            try:
                return self._parse_extraction(reply)
            except MalformedOutputError as exc:
                raise MalformedOutputError(f"unparseable model reply after reprompt: {reply!r}") from exc

    def judge(self, original_sms: str, extraction: LlmExtraction, lexicon: KeywordLexicon) -> int:
        prompt = (
            "Rate from 1 to 10 how accurately the following complaint and request "
            "lists reflect the customer message. 10 means fully accurate, 1 means "
            "inaccurate. Reply with the number only.\n\n"
            f"Customer message: {original_sms}\n"
            f"Complaints: {json.dumps(list(extraction.complaint))}\n"
            f"Requests: {json.dumps(list(extraction.request))}\n"
        )
        reply = self._complete(prompt)
        numbers = _NUMBER.findall(_SCORE_SCALE.sub(" ", reply))
        if len(numbers) != 1 or not numbers[0].isdigit() or not 1 <= int(numbers[0]) <= 10:
            raise MalformedOutputError(f"no single 1..10 score in reply: {reply!r}")
        return int(numbers[0])

    def _extraction_prompt(self, sms_text: str, lexicon: KeywordLexicon) -> str:
        keywords = ", ".join(f"{e.canonical} ({e.polarity})" for e in lexicon.entries)
        example = {
            "renew": ["keyword1", "keyword2"],
            "stop": ["keyword3"],
            "complaint": ["first complaint issue"],
            "request": ["first request"],
            "mood": "positive",
        }
        return (
            "You read one customer SMS replying to a medication renewal campaign.\n"
            f"Known instruction keywords: {keywords}.\n"
            "List the renewal keywords and the stop keywords the customer used, plus "
            "any complaints and requests, and the overall mood "
            "(positive, neutral or negative).\n"
            f"Answer with a JSON document shaped exactly like: {json.dumps(example)}\n\n"
            f"Customer SMS: {sms_text}"
        )

    @staticmethod
    def _parse_extraction(reply: str) -> LlmExtraction:
        text = reply.strip()
        fence = _FENCE.search(text)
        if fence:
            text = fence.group(1).strip()
        try:
            doc = json.loads(text)
            lists = [doc[key] for key in ("renew", "stop", "complaint", "request")]
            mood = doc["mood"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise MalformedOutputError(f"reply is not the expected document: {reply!r}") from exc
        # Untrusted output: the validator discards a keyword that is no canonical of its list's
        # polarity, the judge normalizes every item.
        strings = all(isinstance(items, list) and all(isinstance(i, str) for i in items) for items in lists)
        if not (strings and isinstance(mood, str)):
            raise MalformedOutputError(f"reply is not lists of strings and a string mood: {reply!r}")
        return LlmExtraction.from_doc(doc)


class LlmAgent:
    """Fan-out consumer for forwarded messages; one coordinator, two models."""

    qualifier = "LlmAgent"

    def __init__(
        self,
        models: list,
        lexicon: KeywordLexicon,
        faults: FaultPlan,
        store: RunStore,
        pool: MessagePool,
        executor: Executor | None = None,
    ):
        if len(models) != 2:
            raise ValueError(f"the extraction stage needs exactly two models, got {len(models)}")
        self.models = models
        self.lexicon = lexicon
        self.faults = faults
        self.store = store
        self.pool = pool
        self.executor = executor

    def handle(self, envelope: Envelope) -> None:
        self.run(envelope.payload)

    def run(self, parsed: dict) -> dict:
        """Run both configured models on one forwarded S002 document.

        Records the attempt as one S002 step with a typed ``attempt``, then
        publishes one stage-S003 document holding ``parsed`` as received, the
        ``attempt`` the models ran at (``parsed["attempt"]``, which only the
        validator's retry sets, else 1) and ``responses``: per model, in model
        order also when ``executor`` overlaps the two calls, an extraction
        with the fault plan applied on this thread, or an explicit failure
        marker.  The validator decides the event from that document alone.
        An exception other than a model error leaves the stage before
        anything is published.
        """
        store = self.store
        metadata = parsed["metadata"]
        event_id = metadata["eventId"]
        attempt = parsed.get("attempt", 1)
        original = store.fetch_original(event_id)
        store.record_step(event_id, STEP_LLM_REQUESTED, self.qualifier, "extracting", attempt=attempt)

        def extract(model):
            return model.extract(original, self.lexicon)

        responses = []
        for model, extraction in model_results(extract, self.models, self.executor):
            if isinstance(extraction, MODEL_ERRORS):
                responses.append({"model_id": model.model_id, "failed": True, "reason": str(extraction)})
                store.record_step(
                    event_id, STEP_LLM_EXTRACTED, self.qualifier,
                    f"extraction-failure:{model.model_id}: {extraction}",
                )
            else:
                self.faults.apply(extraction, original, self.lexicon, event_id, model.model_id, attempt)
                # The extraction is this call's own and is dropped here, so its lists go uncopied.
                responses.append({
                    "model_id": model.model_id, "renew": extraction.renew, "stop": extraction.stop,
                    "complaint": extraction.complaint, "request": extraction.request,
                    "mood": extraction.mood,
                })
        doc = {
            "metadata": restamped(metadata, STEP_LLM_EXTRACTED, store.clock.now_iso()),
            "parsed": parsed,
            "attempt": attempt,
            "responses": responses,
        }
        self.pool.publish(AGENTS_TOPIC, doc)
        return doc
