"""Chain-of-thought slot-tracking datasets from task-oriented dialogues.

The pipeline: load or convert a corpus (corpus), derive per-slot change
chains (chains), render prompt/target examples with coarse explanations
(builder), paraphrase explanations through a completion API (refiner),
and score predictions with joint goal accuracy plus bucketed breakdowns
(evaluator). The cli module wires the same steps into one binary.
"""

__version__ = "0.1.0"
