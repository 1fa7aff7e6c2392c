/**
 * @file
 * A move-only callable with fixed inline storage: the simulator's
 * callback type. Closures up to kInlineFunctionBytes live inside the
 * object, so scheduling one, parking it in a waiter queue or moving
 * it between them never touches the heap. A larger (or over-aligned)
 * closure still works; it is boxed on the heap once, and moving the
 * box only moves a pointer.
 */

#ifndef TPUPOINT_SIM_INLINE_FUNCTION_HH
#define TPUPOINT_SIM_INLINE_FUNCTION_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace tpupoint {

/**
 * Closure bytes an InlineFunction holds without allocating. 64 fits
 * every closure the simulated platform schedules per step: the
 * largest is the session's step continuation (64 bytes, a
 * std::function among them), then the input pipeline's process
 * stage (56: `this`, a HostBatch and three timestamps). A closure
 * that captures another InlineFunction can never fit and is boxed.
 */
inline constexpr std::size_t kInlineFunctionBytes = 64;

template <typename Signature>
class InlineFunction;

namespace detail {

template <typename T>
inline constexpr bool kIsStdFunction = false;

template <typename Signature>
inline constexpr bool kIsStdFunction<std::function<Signature>> = true;

/** Callables with an empty state, which wrap as an empty function. */
template <typename T>
inline constexpr bool kNullable =
    std::is_pointer_v<T> || kIsStdFunction<T>;

} // namespace detail

template <typename R, typename... Args>
class InlineFunction<R(Args...)>
{
  public:
    InlineFunction() noexcept = default;

    InlineFunction(std::nullptr_t) noexcept {}

    /** Wrap @p fn; an empty std::function or null pointer wraps as
     * an empty InlineFunction. */
    template <typename F, typename D = std::decay_t<F>>
        requires(!std::is_same_v<D, InlineFunction> &&
                 std::is_invocable_r_v<R, D &, Args...>)
    InlineFunction(F &&fn)
    {
        if constexpr (detail::kNullable<D>) {
            if (!fn)
                return;
        }
        if constexpr (kFitsInline<D>) {
            ::new (static_cast<void *>(storage)) D(std::forward<F>(fn));
            ops = &kInlineOps<D>;
        } else {
            ::new (static_cast<void *>(storage))
                D *(new D(std::forward<F>(fn)));
            ops = &kBoxedOps<D>;
        }
    }

    InlineFunction(InlineFunction &&other) noexcept { take(other); }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            take(other);
        }
        return *this;
    }

    InlineFunction &
    operator=(std::nullptr_t) noexcept
    {
        reset();
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { reset(); }

    explicit operator bool() const noexcept { return ops != nullptr; }

    /** Invoke the callable. @pre *this is not empty. */
    R
    operator()(Args... args)
    {
        return ops->invoke(storage, std::forward<Args>(args)...);
    }

  private:
    struct Ops
    {
        R (*invoke)(void *, Args &&...);
        /** Move-construct into the second buffer and destroy the
         * first; null when copying the bytes does both. */
        void (*relocate)(void *, void *) noexcept;
        /** Destroy the callable; null when that is a no-op. */
        void (*destroy)(void *) noexcept;
    };

    template <typename D>
    static constexpr bool kFitsInline =
        sizeof(D) <= kInlineFunctionBytes &&
        alignof(D) <= alignof(std::uint64_t) &&
        std::is_nothrow_move_constructible_v<D>;

    template <typename D>
    static D *
    inlineTarget(void *buffer)
    {
        return std::launder(static_cast<D *>(buffer));
    }

    template <typename D>
    static D *
    boxedTarget(void *buffer)
    {
        return *std::launder(static_cast<D **>(buffer));
    }

    template <typename D>
    static constexpr Ops kInlineOps = {
        [](void *buffer, Args &&...args) -> R {
            return std::invoke(*inlineTarget<D>(buffer),
                               std::forward<Args>(args)...);
        },
        std::is_trivially_copyable_v<D>
            ? nullptr
            : +[](void *from, void *to) noexcept {
                  D *source = inlineTarget<D>(from);
                  ::new (to) D(std::move(*source));
                  source->~D();
              },
        std::is_trivially_destructible_v<D>
            ? nullptr
            : +[](void *buffer) noexcept {
                  inlineTarget<D>(buffer)->~D();
              },
    };

    template <typename D>
    static constexpr Ops kBoxedOps = {
        [](void *buffer, Args &&...args) -> R {
            return std::invoke(*boxedTarget<D>(buffer),
                               std::forward<Args>(args)...);
        },
        nullptr,
        [](void *buffer) noexcept { delete boxedTarget<D>(buffer); },
    };

    void
    take(InlineFunction &other) noexcept
    {
        ops = other.ops;
        if (!ops)
            return;
        if (ops->relocate)
            ops->relocate(other.storage, storage);
        else
            std::memcpy(storage, other.storage, sizeof(storage));
        other.ops = nullptr;
    }

    void
    reset() noexcept
    {
        if (ops && ops->destroy)
            ops->destroy(storage);
        ops = nullptr;
    }

    alignas(std::uint64_t) unsigned char storage[kInlineFunctionBytes];
    const Ops *ops = nullptr;
};

} // namespace tpupoint

#endif // TPUPOINT_SIM_INLINE_FUNCTION_HH
