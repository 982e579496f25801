import java.util.function.BiFunction;
import java.util.function.Function;
import java.util.function.IntPredicate;
import java.util.function.Predicate;
import java.util.function.Supplier;
import java.util.function.UnaryOperator;

class K09 {
    Predicate<String> nonEmpty = s -> !s.isEmpty();
    Function<String, Integer> len = String::length;
    Supplier<String> hello = () -> "hello";
    IntPredicate odd = n -> n % 2 == 1;
    BiFunction<Integer, Integer, Integer> add = (a, b) -> a + b;
    UnaryOperator<String> trim = String::trim;
}
