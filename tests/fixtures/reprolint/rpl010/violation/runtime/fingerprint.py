"""RPL010 violation fixture: a wall-clock read inside a fingerprinted
module, whose content addresses must be stable across runs."""

import hashlib
import time


def stamped_fingerprint(payload):
    text = f"{payload}@{time.time()}"
    return hashlib.sha256(text.encode()).hexdigest()
