"""Seeded inputs for the benchmark: customers, SMS corpora and a fake model backend.

Everything here is a pure function of the seed, so one seed always gives the
same customers, the same corpus and the same model replies.  Category counts,
the shares of sub-kinds of mixed replies, the spread of customer profiles
and the number of messages per customer are fixed (only the choice inside
a category, which phone gets which profile and the order are drawn), which
keeps the work per run steady across seeds.
"""
from __future__ import annotations

import json
import random
import re
import time
from dataclasses import dataclass, field

from smsflow.llm import BackendUnavailableError, LlmExtraction, ScriptedModel

# Pure keyword replies: every token is a lexicon keyword (after politeness
# stripping), so the parser reaches a full match and the evaluator takes the
# direct path without fuzzy arbitration or models.
KEYWORD_REPLIES = (
    "1", "2", "1, renew", "Renew", "renew.", "Enroll", "1, unenroll. Thank you",
    "Stop", "2, stop", "1. Thanks", "Unenroll", "1 renew", "Thank you. 1",
    "2. Thank you very much", "enroll, 1", "Please 1",
)

# Keyword prefixes for mixed messages (a pure keyword sentence first).
KEYWORD_PREFIXES = ("1.", "2.", "Renew.", "1, renew.", "Enroll.", "Unenroll.", "1, unenroll.")

# Free-text sentences by category.  Complaints carry a complaint cue,
# questions and bookings a request cue, so the scripted readers extract them
# and the router sends them to an expert.
COMPLAINTS = (
    "The medication tastes bad.",
    "I have a problem with my last delivery.",
    "The label on my pills was wrong.",
    "Your service was terrible this week.",
    "There is an issue with my prescription refill.",
    "The pharmacy line was awful today.",
)
STORE_QUESTIONS = (
    "I need to know where your stores are located.",
    "I want to know your holiday hours.",
    "I need the address of the closest store.",
    "I want to know if the store is open on holiday weekends.",
)
MEDICATION_QUESTIONS = (
    "I need a refill of my blood pressure medication.",
    "I want to ask my doctor about the dose.",
    "I need to renew my prescription for next month.",
)
BOOKINGS = (
    "I want to book a flu shot on 3/22/2025 afternoon.",
    "I need an appointment for a vaccine on 3/23/2025 morning.",
    "I want to reserve a vaccination slot on 3/24/2025.",
    "I want to schedule a flu vaccine on Friday morning.",
)
FREE_TEXT = (COMPLAINTS, STORE_QUESTIONS, MEDICATION_QUESTIONS, BOOKINGS)

# A keyword inside a free-text sentence: the parser claims nothing from it,
# the scripted readers do, so these reach the retry path (when a fault drops
# the keyword from one reading) and the stop-risk gate (extra stop keywords).
EMBEDDED = (
    "1 and I want to know your holiday hours.",
    "2 is fine but the label was wrong.",
    "Please stop the reminders for my old pills.",
    "Renew it as usual for me.",
)

# Texts with no lexicon token at all.
KEYWORDLESS = ("Where is my order", "Who is this", "Call me back tomorrow", "What is this about")

# Words that make every llm-http text unique; none is a lexicon keyword or a
# classification cue.
_UNIQUE_WORDS = (
    "order", "parcel", "box", "bottle", "pack", "refill", "tablet", "script",
    "visit", "counter", "branch", "account", "card", "note", "ticket", "case",
)


@dataclass(frozen=True)
class Customer:
    phone: str
    customer_id: str
    tenure_years: float
    purchases_12mo: float


@dataclass(frozen=True)
class Workload:
    """Generated inputs for one run: the senders and the corpus they send."""

    customers: tuple[Customer, ...]
    corpus: tuple[dict, ...]
    unknown: int  # messages from phones absent from the auth table

    @property
    def accepted(self) -> int:
        return len(self.corpus) - self.unknown


def make_customers(seed: int, n: int, prefix: str = "+1777") -> tuple[Customer, ...]:
    """``n`` customers whose tenure and yearly purchases are spread evenly.

    Each profile dimension is stratified (one draw per 1/n slice), and tenure
    slice i is paired with the purchase slice at rank i of the golden-ratio
    sequence, the same for every seed, so importance covers low, medium and
    high in the same shares and the arbitration both forwards and fails
    mixed messages.  The seed draws the place inside each slice and which
    phone gets which profile.
    """
    rng = random.Random(f"customers:{seed}")
    golden = sorted(range(n), key=lambda i: (i * 0.6180339887498949) % 1.0)
    purchase_slot = {slot: rank for rank, slot in enumerate(golden)}
    phones = list(range(n))
    rng.shuffle(phones)
    customers = []
    for i, k in enumerate(phones):
        tenure = 12.0 * (i + rng.random()) / n
        purchases = 4000.0 * (purchase_slot[i] + rng.random()) / n
        customers.append(
            Customer(f"{prefix}{k:07d}", f"G{k:06d}", round(tenure, 2), round(purchases, 2))
        )
    customers.sort(key=lambda c: c.phone)
    return tuple(customers)


def _senders(rng: random.Random, customers, n: int) -> list[str]:
    """Phones for ``n`` messages: every customer in turn, in a seeded order,
    so each sends the same number of messages (give or take one)."""
    order = list(customers)
    rng.shuffle(order)
    return [order[i % len(order)].phone for i in range(n)]


def extend_config(config, customers) -> None:
    """Add generated customers to a loaded config's auth table and profiles."""
    from smsflow.arbitration import CustomerProfile

    for c in customers:
        config.auth.phones[c.phone] = c.customer_id
        config.profiles[c.customer_id] = CustomerProfile(
            customer_id=c.customer_id,
            tenure_years=c.tenure_years,
            purchases_12mo=c.purchases_12mo,
        )


def _mixed_texts(rng: random.Random, n: int) -> list[str]:
    """``n`` keyword-plus-free-text replies: a fifth with the keyword inside
    a sentence, and of the rest 30% with two sentences; the sentence
    categories take turns, so these shares are the same for every seed."""
    n_embedded = round(0.2 * n)
    n_two = round(0.3 * (n - n_embedded))
    texts = [EMBEDDED[i % len(EMBEDDED)] for i in range(n_embedded)]
    category = 0
    for i in range(n - n_embedded):
        parts = [rng.choice(KEYWORD_PREFIXES)]
        for _ in range(2 if i < n_two else 1):
            parts.append(rng.choice(FREE_TEXT[category % len(FREE_TEXT)]))
            category += 1
        texts.append(" ".join(parts))
    return texts


def _split(n: int, shares: tuple[float, ...]) -> list[int]:
    counts = [int(n * s) for s in shares]
    counts[0] += n - sum(counts)
    return counts


def campaign(seed: int, n: int) -> Workload:
    """Renewal-campaign replies: ~half pure keywords, ~half keyword plus free
    text, and a few percent keyword-less texts and unknown phones.

    Texts come from small template pools, so they repeat heavily.
    """
    rng = random.Random(f"campaign:{seed}:{n}")
    customers = make_customers(seed, max(10, n // 8))
    n_keyword, n_mixed, n_keywordless, n_unknown = _split(n, (0.48, 0.47, 0.03, 0.02))
    corpus = []
    for texts in (
        [rng.choice(KEYWORD_REPLIES) for _ in range(n_keyword)],
        _mixed_texts(rng, n_mixed),
        [rng.choice(KEYWORDLESS) for _ in range(n_keywordless)],
    ):
        corpus += [{"phone": p, "text": t} for p, t in zip(_senders(rng, customers, len(texts)), texts)]
    corpus += [
        {"phone": f"+1999{rng.randrange(10**7):07d}", "text": rng.choice(KEYWORD_REPLIES)}
        for _ in range(n_unknown)
    ]
    rng.shuffle(corpus)
    return Workload(customers=customers, corpus=tuple(corpus), unknown=n_unknown)


def _unique_text(rng: random.Random, i: int) -> str:
    """Keyword plus free text, made unique by a reference no other message has.

    Bookings are left out: the appointment capacity is shared across events,
    and under open-loop arrival the processing order, and so which event
    gets a slot, would depend on timing.
    """
    prefix = rng.choice(KEYWORD_PREFIXES)
    sentence = rng.choice(rng.choice(FREE_TEXT[:3])).rstrip(".")
    word = rng.choice(_UNIQUE_WORDS)
    return f"{prefix} {sentence} about {word} ref{_tag(rng)}x{i}."


def _tag(rng: random.Random) -> str:
    return "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(4))


def llm_http(seed: int, n: int) -> Workload:
    """Open-loop traffic for the model stage: almost every message is keyword
    plus unique free text from a high-importance customer, so it is forwarded
    to both models and both judges; no text repeats."""
    rng = random.Random(f"llm-http:{seed}:{n}")
    # Long-tenure, high-spend customers: importance is high, so the evaluator
    # forwards every mixed message to the model stage.
    customers = tuple(
        Customer(c.phone, c.customer_id, 8.0 + c.tenure_years / 2, 2600.0 + c.purchases_12mo)
        for c in make_customers(seed, max(10, n // 4), prefix="+1888")
    )
    n_mixed, n_keyword, n_unknown = _split(n, (0.96, 0.03, 0.01))
    corpus = [{"phone": rng.choice(customers).phone, "text": _unique_text(rng, i)} for i in range(n_mixed)]
    corpus += [
        {"phone": rng.choice(customers).phone, "text": rng.choice(KEYWORD_REPLIES)}
        for _ in range(n_keyword)
    ]
    corpus += [
        {"phone": f"+1999{rng.randrange(10**7):07d}", "text": _unique_text(rng, n + i)}
        for i in range(n_unknown)
    ]
    rng.shuffle(corpus)
    return Workload(customers=customers, corpus=tuple(corpus), unknown=n_unknown)


# -- fake chat-completion backend ----------------------------------------------

REPROMPT_SUFFIX = "\n\nReturn only the JSON document, nothing else."
_JUDGE_RE = re.compile(r"Customer message: (.*)\nComplaints: (.*)\nRequests: (.*)\n", re.DOTALL)


@dataclass
class FakeChatTransport:
    """In-process stand-in for a chat-completion endpoint.

    Sleeps ``delay_s`` per call, then answers extraction prompts with the
    scripted reading of the prompt's SMS as JSON and judge prompts with the
    scripted 1..10 score.  A seeded share of first extraction replies is
    malformed (the reprompt then succeeds) and a seeded share of calls raises
    ``BackendUnavailableError``.  Each draw is keyed by (seed, model, prompt),
    so replies do not depend on call order.
    """

    model_id: str
    lexicon: object
    cues: object
    seed: int
    delay_s: float
    malformed_rate: float = 0.0
    unavailable_rate: float = 0.0
    calls: int = 0
    reprompts: int = 0
    _reader: ScriptedModel = field(init=False, repr=False)

    def __post_init__(self):
        self._reader = ScriptedModel(self.model_id, self.cues)

    def __call__(self, body: dict) -> str:
        prompt = body["messages"][-1]["content"]
        self.calls += 1
        if self.delay_s > 0:
            time.sleep(self.delay_s)
        draw = random.Random(f"{self.seed}:{self.model_id}:{prompt}")
        if draw.random() < self.unavailable_rate:
            raise BackendUnavailableError(f"injected outage at {self.model_id}")
        judged = _JUDGE_RE.search(prompt)
        if judged is not None:
            extraction = LlmExtraction(
                complaint=json.loads(judged.group(2)), request=json.loads(judged.group(3))
            )
            return str(self._reader.judge(judged.group(1), extraction, self.lexicon))
        if "Customer SMS: " not in prompt:
            raise ValueError(f"fake transport cannot read prompt: {prompt[:80]!r}")
        reprompt = prompt.endswith(REPROMPT_SUFFIX)
        if reprompt:
            self.reprompts += 1
            prompt = prompt[: -len(REPROMPT_SUFFIX)]
        elif draw.random() < self.malformed_rate:
            return "Sure! The customer wants to renew, I think."
        sms = prompt.rsplit("Customer SMS: ", 1)[1]
        return json.dumps(self._reader.extract(sms, self.lexicon).to_doc())
