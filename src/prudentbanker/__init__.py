"""Safe adversarial bandits under delayed feedback.

Implements the Prudent-Banker learner (phased aggression over a Banker-OMD
core), the delayed-bandit protocol it plays in, baseline learners, greedy
bucket / hard-instance lower-bound constructions, and a reproducible
experiment harness.
"""
