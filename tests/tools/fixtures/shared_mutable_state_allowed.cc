// Fixture: const tables are safe to share.
namespace engine {

constexpr int kMaxWaves = 4;
const char* const kStageNames[] = {"scan", "shuffle"};

}  // namespace engine
