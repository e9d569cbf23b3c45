"""A fake chat-completion endpoint for tests of ``ChatCompletionModel``.

It answers extraction prompts with the scripted model's reading of the SMS
and judge prompts with the scripted score, so runs behind it are
deterministic.  Before answering it can wait on a barrier, sleep, or raise,
and it records the thread of every call.
"""
from __future__ import annotations

import json
import re
import threading
import time

from smsflow.llm import ChatCompletionModel, ScriptedModel
from smsflow.messages import LlmExtraction

_JUDGE_PROMPT = re.compile(r"Customer message: (.*)\nComplaints: (.*)\nRequests: (.*)\n", re.DOTALL)


class FakeChat:
    def __init__(self, model_id, lexicon, delay=None, barrier=None, error=None):
        self.reader = ScriptedModel(model_id)
        self.lexicon = lexicon
        self.delay = delay  # seconds, or a function of the prompt giving them
        self.barrier = barrier
        self.error = error
        self.threads: list[threading.Thread] = []

    def __call__(self, body: dict) -> str:
        prompt = body["messages"][-1]["content"]
        self.threads.append(threading.current_thread())
        if self.barrier is not None:
            self.barrier.wait()
        delay = self.delay(prompt) if callable(self.delay) else self.delay
        if delay:
            time.sleep(delay)
        if self.error is not None:
            raise self.error
        judged = _JUDGE_PROMPT.search(prompt)
        if judged is not None:
            extraction = LlmExtraction(
                complaint=json.loads(judged.group(2)), request=json.loads(judged.group(3))
            )
            return str(self.reader.judge(judged.group(1), extraction, self.lexicon))
        sms = prompt.rsplit("Customer SMS: ", 1)[1]
        return json.dumps(self.reader.extract(sms, self.lexicon).to_doc())


def chat_models(lexicon, **fake_kwargs) -> list[ChatCompletionModel]:
    """Models alpha and beta, each behind its own ``FakeChat``."""
    return [
        ChatCompletionModel(
            model_id, "http://fake/v1", f"fake-{model_id}",
            transport=FakeChat(model_id, lexicon, **fake_kwargs),
        )
        for model_id in ("alpha", "beta")
    ]
