"""R012 fixture: unlocked writes to shared state in worker-reachable code.

``run`` spawns a nested worker closure on a thread pool; everything the
worker can reach through the call graph is checked for writes to shared
(non-fresh) state outside a ``with <lock>:`` block. Never imported or
executed.
"""

import threading
from concurrent.futures import ThreadPoolExecutor


class SharedCounter:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.count = 0
        self.items: list = []

    def locked_add(self, value: int) -> None:
        with self.lock:
            self.count += value
            self.items.append(value)

    def unlocked_add(self, value: int) -> None:
        self.count += value  # EXPECT:R012
        self.items.append(value)  # EXPECT:R012


def run(n_workers: int) -> int:
    shared = SharedCounter()

    def worker() -> None:
        shared.locked_add(1)
        shared.unlocked_add(2)
        shared.count = 99  # EXPECT:R012
        scratch: list = []
        scratch.append(1)  # fresh local: never flagged
        with shared.lock:
            shared.count += 1  # under the lock: fine

    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        futures = [pool.submit(worker) for _ in range(n_workers)]
        for future in futures:
            future.result()
    return shared.count


def run_suppressed(n_workers: int) -> None:
    shared = SharedCounter()

    def primer() -> None:
        shared.count = 0  # reprolint: disable=R012 -- single-threaded priming before the pool starts

    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        pool.submit(primer)

