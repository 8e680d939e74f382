"""DeepCars: a highway gridworld plus tabular Q-learning, DQN, and DDQN agents.
The package root re-exports nothing; import each name from its module."""

__version__ = "0.1.0"
