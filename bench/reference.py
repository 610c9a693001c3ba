"""A fixed pure-Python job that shows how fast the host runs right now.

On a shared host the same pure-Python loop takes anywhere from 1x to 2x
of its best time, changing from one second to the next. The benchmark
times this job next to every operation and reports each operation's
time in units of the job, converted back to milliseconds with the job's
best time on a 2-vCPU Xeon VM (CPython 3.11.7). Like the library, the
job is Fraction arithmetic, tuples and dicts.

    python3 -S bench/reference.py

runs CHILD_JOBS jobs in a fresh interpreter: the reference for
operations that are whole processes, interpreter start included.
"""

from fractions import Fraction

JOB_MS = 1.1  # about the best time of job() in a warm process
CHILD_JOBS = 5
CHILD_MS = 30.0  # about the best time of the child process, start included


def job():
    total = Fraction(0)
    seen = {}
    for i in range(1, 400):
        total += Fraction(1, i)
        seen[(i, i % 7)] = total
    return total


if __name__ == "__main__":
    for _ in range(CHILD_JOBS):
        job()
