"""Language-model agents: structured SMS extraction and cross-judging.

Two interchangeable backends sit behind one interface: a deterministic
scripted model used by the test harness (with seeded fault injection so
hallucination handling can be reproduced exactly), and an HTTP
chat-completion adapter for real deployments.  :func:`model_results` runs
one stage's model calls, one after the other or overlapped on an executor.
"""
from __future__ import annotations

import json
import logging
import random
import re
import urllib.request
from concurrent.futures import Executor
from dataclasses import dataclass

from .messages import (
    AGENTS_TOPIC,
    STEP_LLM_EXTRACTED,
    LlmExtraction,
    RenewalProcessed,
)
from .pool import Envelope, MessagePool
from .renewal import KeywordLexicon, sentence_tokens, split_sentences, tokens_of
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


ZERO_FAULTS = FaultPlan()


@dataclass(frozen=True)
class CueConfig:
    """Token cues driving the scripted classifier."""

    complaint: tuple[str, ...] = ("bad", "complaint", "problem", "issue", "wrong", "terrible", "awful")
    request: tuple[str, ...] = ("want", "need", "reserve", "book", "appointment", "schedule")
    mood_positive: tuple[str, ...] = ("thank", "thanks", "great", "good", "appreciate")
    mood_negative: tuple[str, ...] = ("bad", "terrible", "awful", "angry", "unhappy")


def classify_sentence(sentence: str, cues: CueConfig) -> str:
    tokens = {t.lower() for t in sentence_tokens(sentence)}
    if tokens & set(cues.complaint):
        return "complaint"
    if tokens & set(cues.request):
        return "request"
    return "other"


class ScriptedModel:
    """Deterministic stand-in for a chat model.

    Extraction claims every lexicon token it can see, except that word-form
    keywords inside sentences read as complaints or requests are treated as
    part of that sentence rather than as instructions (numeric codes are
    claimed everywhere).  This is intentionally more permissive than the
    parser agent: it also claims keywords from mixed sentences.
    """

    def __init__(self, model_id: str, cues: CueConfig | None = None):
        self.model_id = model_id
        self.cues = cues or CueConfig()

    def extract(
        self,
        sms_text: str,
        lexicon: KeywordLexicon,
        event_id: str = "",
        attempt: int = 1,
        faults: FaultPlan = ZERO_FAULTS,
    ) -> LlmExtraction:
        cues = self.cues
        renew: list[str] = []
        stop: list[str] = []
        complaint: list[str] = []
        request: list[str] = []
        pos = neg = 0

        def claim(entry):
            target = renew if entry.polarity == "renew" else stop
            if entry.canonical not in renew and entry.canonical not in stop:
                target.append(entry.canonical)

        for sentence in split_sentences(sms_text, lexicon):
            kind = classify_sentence(sentence, cues)
            for token in sentence_tokens(sentence):
                lowered = token.lower()
                if lowered in cues.mood_positive:
                    pos += 1
                if lowered in cues.mood_negative:
                    neg += 1
                entry = lexicon.match_token(token)
                if entry is None:
                    continue
                if kind == "other" or entry.canonical.isdigit():
                    claim(entry)
            if kind == "complaint":
                complaint.append(sentence)
            elif kind == "request":
                request.append(sentence)

        mood = "positive" if pos > neg else "negative" if neg > pos else "neutral"
        extraction = LlmExtraction(
            renew=renew, stop=stop, complaint=complaint, request=request,
            mood=mood, model_id=self.model_id,
        )
        return self._apply_faults(extraction, sms_text, lexicon, event_id, attempt, faults)

    def _apply_faults(
        self,
        extraction: LlmExtraction,
        sms_text: str,
        lexicon: KeywordLexicon,
        event_id: str,
        attempt: int,
        faults: FaultPlan,
    ) -> LlmExtraction:
        add_fires, drop_fires, rng = faults.draws(event_id, self.model_id, attempt)
        if add_fires:
            present = tokens_of(sms_text, lexicon)
            absent = [c for c in lexicon.canonicals() if c.lower() not in present]
            if absent:
                canonical = absent[0]
                target = extraction.renew if lexicon.polarity_of(canonical) == "renew" else extraction.stop
                if canonical not in extraction.keywords():
                    target.append(canonical)
        if drop_fires:
            claimed = extraction.keywords()
            if claimed:
                victim = claimed[rng.randrange(len(claimed))]
                if victim in extraction.renew:
                    extraction.renew.remove(victim)
                else:
                    extraction.stop.remove(victim)
        return extraction

    def judge(self, original_sms: str, extraction: LlmExtraction, lexicon: KeywordLexicon) -> int:
        """Coverage score 1..10 for the complaint/request reading.

        Starts at 10; each extracted item matching no free-text sentence of
        the original costs 3, each free-text sentence with no matching item
        costs 2.
        """
        sentences = [
            s for s in split_sentences(original_sms, lexicon)
            if not all(lexicon.match_token(t) for t in sentence_tokens(s))
        ]
        normalized_sentences = [_normalize_item(s) for s in sentences]
        items = [_normalize_item(i) for i in (list(extraction.complaint) + list(extraction.request))]

        fabricated = sum(1 for item in items if item not in normalized_sentences)
        missed = sum(1 for s in normalized_sentences if s not in items)
        return max(1, min(10, 10 - 3 * fabricated - 2 * missed))


_WHITESPACE_RUNS = re.compile(r"\s+")


def _normalize_item(text: str) -> str:
    return _WHITESPACE_RUNS.sub(" ", text).strip(" \t.,!?;").lower()


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

    def extract(
        self,
        sms_text: str,
        lexicon: KeywordLexicon,
        event_id: str = "",
        attempt: int = 1,
        faults: FaultPlan = ZERO_FAULTS,
    ) -> LlmExtraction:
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
        match = re.search(r"\b(10|[1-9])\b", reply)
        if not match:
            raise MalformedOutputError(f"no 1..10 score in reply: {reply!r}")
        return int(match.group(1))

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
        fence = re.search(r"```(?:json)?\s*(.*?)```", text, re.DOTALL)
        if fence:
            text = fence.group(1).strip()
        try:
            doc = json.loads(text)
            return LlmExtraction.from_doc(doc)
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise MalformedOutputError(f"reply is not the expected document: {reply!r}") from exc


def run_llm_stage(
    msg: RenewalProcessed,
    models: list,
    lexicon: KeywordLexicon,
    faults: FaultPlan,
    store: RunStore,
    pool: MessagePool,
    executor: Executor | None = None,
) -> list[dict]:
    """Run both configured models on one forwarded message.

    Always publishes exactly two stage-S003 documents: an extraction per
    healthy model and an explicit failure marker otherwise, so the validator
    can fail over without waiting.  Documents and step records follow the
    model order, also when ``executor`` overlaps the two calls.
    """
    if len(models) != 2:
        raise ValueError(f"the extraction stage needs exactly two models, got {len(models)}")
    event_id = msg.metadata.event_id
    attempt = 1 + store.retry_count(event_id)
    original = store.fetch_original(event_id)

    def extract(model):
        return model.extract(original, lexicon, event_id=event_id, attempt=attempt, faults=faults)

    published = []
    for model, extraction in model_results(extract, models, executor):
        metadata = msg.metadata.at_step(STEP_LLM_EXTRACTED, last_update=store.clock.now_iso())
        if isinstance(extraction, MODEL_ERRORS):
            doc = {
                "metadata": metadata.to_doc(),
                "model_id": model.model_id,
                "failed": True,
                "reason": str(extraction),
            }
            store.record_step(
                event_id, STEP_LLM_EXTRACTED, "LlmAgent",
                f"extraction-failure:{model.model_id}: {extraction}",
            )
        else:
            doc = {"metadata": metadata.to_doc(), "model_id": model.model_id, **extraction.to_doc()}
        pool.publish(AGENTS_TOPIC, doc)
        published.append(doc)
    return published


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
        self.models = models
        self.lexicon = lexicon
        self.faults = faults
        self.store = store
        self.pool = pool
        self.executor = executor

    def handle(self, envelope: Envelope) -> None:
        msg = RenewalProcessed.from_doc(envelope.payload)
        run_llm_stage(
            msg, self.models, self.lexicon, self.faults, self.store, self.pool, self.executor
        )
