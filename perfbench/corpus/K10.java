import java.util.List;
import java.util.Optional;
import java.util.stream.Collectors;
import java.util.stream.Stream;

class K10 {
    List<Integer> lengths(List<String> names) {
        return names.stream()
                .map(s -> s.length())
                .sorted()
                .collect(Collectors.toList());
    }

    Optional<String> firstLong(List<String> names) {
        return names.stream().filter(s -> s.length() > 8).findFirst();
    }

    Stream<String> flat(List<List<String>> nested) {
        return nested.stream().flatMap(List::stream);
    }

    boolean any(List<String> names) {
        return names.stream().anyMatch(s -> s.isEmpty());
    }
}
