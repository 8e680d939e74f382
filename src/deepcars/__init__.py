"""DeepCars: a highway gridworld plus tabular Q-learning, DQN, and DDQN agents."""

from .dqn import (
    Checkpoint,
    DqnHyperparams,
    DqnTrainer,
    epsilon_at,
    td_targets,
    train_dqn,
    validate,
)
from .encoders import TabularState, dqn_state_size, encode_dqn, encode_tabular
from .env import (
    Action,
    ConfigError,
    DeepCarsEnv,
    EnvConfig,
    EnvState,
    Episodes,
    StepOutcome,
    TerminalStateError,
    evaluate,
    render_ascii,
    spawn_row,
)
from .metrics import RunMetrics, accuracy, plot_svg, read_csv, write_csv
from .net import (
    MlpParams,
    ModelFormatError,
    NumericError,
    OptimizerState,
    ShapeError,
    backward,
    clone,
    clone_into,
    forward,
    gradient_step,
    init_params,
    load_model,
    make_optimizer,
    save_model,
)
from .replay import Batch, ReplayBuffer
from .tabular import (
    QTable,
    TabularHyperparams,
    load_qtable,
    q_update,
    save_qtable,
    select_action,
    train_tabular,
)

__version__ = "0.1.0"
