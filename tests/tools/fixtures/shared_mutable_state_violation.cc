// Fixture: mutable statics in all three storages, a sim:: owner's too.
namespace engine {

int g_inflight = 0;

class Pool {
 public:
  static long next_id_;
};

void Bump() { static int calls = 0; ++calls; }

}  // namespace engine

namespace sim {

int g_active_runs = 0;

}  // namespace sim
